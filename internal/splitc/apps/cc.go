package apps

import (
	"encoding/binary"

	"unet/internal/sim"
	"unet/internal/splitc"
)

// Connected components (paper §6): label propagation over a distributed
// undirected graph. Vertices are block-distributed; each iteration every
// processor pushes its vertices' current labels across cut edges with
// small messages, receivers fold the minimum, and an all-reduce detects
// quiescence. This is the small-message-bound benchmark of Figure 5 —
// the CM-5's low per-message overhead wins here.

// CCConfig sizes the benchmark.
type CCConfig struct {
	// VerticesPerNode is the local vertex count.
	VerticesPerNode int
	// Degree is the average number of edges per vertex.
	Degree int
	// Seed drives the deterministic graph generation.
	Seed int
}

// PaperCCConfig returns a full-scale configuration comparable to §6.
func PaperCCConfig() CCConfig {
	return CCConfig{VerticesPerNode: 64 << 10, Degree: 4, Seed: 3}
}

const argLabel = 9 // [vertex u32][label u32]

type ccNode struct {
	nd  *splitc.Node
	cfg CCConfig

	labels []uint32 // local vertex labels, indexed by local id
	// edges: local vertex -> neighbor global ids (including remote).
	edges   [][]uint32
	eod     eodTracker
	changed bool
}

// ccEdges generates the global edge list deterministically: every node can
// regenerate any vertex's adjacency. Edges connect random vertex pairs.
func ccEdges(cfg CCConfig, nnodes int) [][2]uint32 {
	total := cfg.VerticesPerNode * nnodes
	g := rng(cfg.Seed, 999)
	edges := make([][2]uint32, 0, total*cfg.Degree/2)
	for i := 0; i < total*cfg.Degree/2; i++ {
		a := uint32(g.Intn(total))
		b := uint32(g.Intn(total))
		if a != b {
			edges = append(edges, [2]uint32{a, b})
		}
	}
	return edges
}

func (c *ccNode) setup() {
	n := c.nd.N()
	local := c.cfg.VerticesPerNode
	self := c.nd.Self()
	c.labels = make([]uint32, local)
	c.edges = make([][]uint32, local)
	for i := range c.labels {
		c.labels[i] = uint32(self*local + i) // label = own global id
	}
	for _, e := range ccEdges(c.cfg, n) {
		a, b := e[0], e[1]
		if int(a)/local == self {
			c.edges[int(a)%local] = append(c.edges[int(a)%local], b)
		}
		if int(b)/local == self {
			c.edges[int(b)%local] = append(c.edges[int(b)%local], a)
		}
	}
	c.eod = eodTracker{nd: c.nd}
	c.nd.OnSmall(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
		switch arg {
		case argEOD:
			c.eod.seen++
		case argLabel:
			v := binary.BigEndian.Uint32(data)
			lbl := binary.BigEndian.Uint32(data[4:])
			lv := int(v) % local
			if lbl < c.labels[lv] {
				c.labels[lv] = lbl
				c.changed = true
			}
		}
		return 0, nil
	})
}

func (c *ccNode) run(p *sim.Proc) {
	local := c.cfg.VerticesPerNode
	self := c.nd.Self()
	for {
		c.changed = false
		var buf [8]byte
		sends := 0
		for lv, nbrs := range c.edges {
			lbl := c.labels[lv]
			for _, nb := range nbrs {
				owner := int(nb) / local
				if owner == self {
					ln := int(nb) % local
					if lbl < c.labels[ln] {
						c.labels[ln] = lbl
						c.changed = true
					}
					continue
				}
				binary.BigEndian.PutUint32(buf[:], nb)
				binary.BigEndian.PutUint32(buf[4:], lbl)
				c.nd.Send(p, owner, argLabel, buf[:])
				sends++
			}
		}
		c.nd.ComputeOps(p, local*c.cfg.Degree, splitc.IntOpCost)
		c.eod.sendAll(p)
		c.eod.wait(p)
		anyChanged := c.nd.AllReduce(p, boolToInt(c.changed), splitc.OpMax)
		c.nd.Barrier(p)
		if anyChanged == 0 {
			return
		}
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// RunCC executes connected components, returning the timing result and
// each node's final labels for verification.
func RunCC(nodes []*splitc.Node, cfg CCConfig) (Result, [][]uint32) {
	cs := make([]*ccNode, len(nodes))
	for i, nd := range nodes {
		cs[i] = &ccNode{nd: nd, cfg: cfg}
		cs[i].setup()
	}
	times := splitc.Run(nodes, func(p *sim.Proc, nd *splitc.Node) {
		cs[nd.Self()].run(p)
	})
	out := make([][]uint32, len(nodes))
	for i, c := range cs {
		out[i] = c.labels
	}
	return collect(nodes, times), out
}

// CCReference computes components serially with union-find.
func CCReference(cfg CCConfig, nnodes int) []uint32 {
	total := cfg.VerticesPerNode * nnodes
	parent := make([]uint32, total)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range ccEdges(cfg, nnodes) {
		ra, rb := find(e[0]), find(e[1])
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	out := make([]uint32, total)
	for i := range out {
		out[i] = find(uint32(i))
	}
	// Normalize: the label-propagation answer is the minimum vertex id in
	// the component, which union-by-min find yields directly.
	return out
}
