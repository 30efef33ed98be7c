package apps

import (
	"fmt"
	"time"

	"unet/internal/sim"
	"unet/internal/splitc"
)

// MMConfig sizes the blocked matrix multiply. The paper runs 4×4 blocks of
// 128×128 doubles on 8 processors; the test default scales the block size
// down.
type MMConfig struct {
	// Grid is the matrix blocking factor g: matrices are g×g blocks.
	Grid int
	// Block is the block edge b: each block is b×b float64s.
	Block int
}

// PaperMMConfig returns the paper's full-scale configuration (§6).
func PaperMMConfig() MMConfig { return MMConfig{Grid: 4, Block: 128} }

// mm message args: request for a block of A or B.
const (
	argFetchA = 1
	argFetchB = 2
)

type mmNode struct {
	nd  *splitc.Node
	cfg MMConfig
	// Owned blocks of A, B and C, keyed by block index i*g+j.
	a, b, c map[int][]float64
	// bulkQ holds block payloads by source, matched FIFO to fetches.
	bulkQ map[int][][]float64
}

// owner distributes block (i,j) round-robin over processors.
func (m *mmNode) owner(i, j int) int { return (i*m.cfg.Grid + j) % m.nd.N() }

// genBlock fills block (i,j) of matrix id deterministically, so every node
// agrees on the data and the test can recompute the reference product.
func genBlock(id, i, j, b int) []float64 {
	out := make([]float64, b*b)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			out[r*b+c] = float64((id*31+i*17+j*13+r*7+c)%23) / 23.0
		}
	}
	return out
}

func (m *mmNode) setup() {
	g, b := m.cfg.Grid, m.cfg.Block
	m.a = map[int][]float64{}
	m.b = map[int][]float64{}
	m.c = map[int][]float64{}
	m.bulkQ = map[int][][]float64{}
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			if m.owner(i, j) == m.nd.Self() {
				m.a[i*g+j] = genBlock(1, i, j, b)
				m.b[i*g+j] = genBlock(2, i, j, b)
				m.c[i*g+j] = make([]float64, b*b)
			}
		}
	}
	m.nd.OnSmall(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
		switch arg {
		case argEOD:
			// unused in mm
		case argFetchA, argFetchB:
			idx := int(uint32(data[0])<<8 | uint32(data[1]))
			var blk []float64
			if arg == argFetchA {
				blk = m.a[idx]
			} else {
				blk = m.b[idx]
			}
			if blk == nil {
				panic(fmt.Sprintf("mm: node %d asked for block %d it does not own", m.nd.Self(), idx))
			}
			m.nd.Bulk(p, src, f64sToBytes(blk))
		}
		return 0, nil
	})
	m.nd.OnBulk(func(p *sim.Proc, src int, data []byte) {
		m.bulkQ[src] = append(m.bulkQ[src], bytesToF64s(data))
	})
}

// request issues an asynchronous block fetch (the prefetch of §6's main
// loop) and returns a wait function.
func (m *mmNode) request(p *sim.Proc, mat uint32, i, j int) func(*sim.Proc) []float64 {
	g := m.cfg.Grid
	idx := i*g + j
	own := m.owner(i, j)
	if own == m.nd.Self() {
		var blk []float64
		if mat == argFetchA {
			blk = m.a[idx]
		} else {
			blk = m.b[idx]
		}
		return func(*sim.Proc) []float64 { return blk }
	}
	m.nd.Send(p, own, mat, []byte{byte(idx >> 8), byte(idx)})
	return func(p *sim.Proc) []float64 {
		for len(m.bulkQ[own]) == 0 {
			m.nd.PollWait(p, time.Millisecond)
		}
		blk := m.bulkQ[own][0]
		m.bulkQ[own] = m.bulkQ[own][1:]
		return blk
	}
}

// dgemm computes c += a×b for b×b blocks, charging one fused multiply-add
// per inner-loop step.
func (m *mmNode) dgemm(p *sim.Proc, cblk, ablk, bblk []float64) {
	b := m.cfg.Block
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			aik := ablk[i*b+k]
			row := bblk[k*b:]
			crow := cblk[i*b:]
			for j := 0; j < b; j++ {
				crow[j] += aik * row[j]
			}
		}
	}
	m.nd.ComputeOps(p, b*b*b, splitc.FlopCost)
}

func (m *mmNode) run(p *sim.Proc) {
	g := m.cfg.Grid
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			if m.owner(i, j) != m.nd.Self() {
				continue
			}
			cblk := m.c[i*g+j]
			// Prefetch the k=0 operands, then overlap: while multiplying
			// block k, the k+1 operands are already in flight (§6).
			waitA := m.request(p, argFetchA, i, 0)
			waitB := m.request(p, argFetchB, 0, j)
			for k := 0; k < g; k++ {
				ablk := waitA(p)
				bblk := waitB(p)
				if k+1 < g {
					waitA = m.request(p, argFetchA, i, k+1)
					waitB = m.request(p, argFetchB, k+1, j)
				}
				m.dgemm(p, cblk, ablk, bblk)
				m.nd.Poll(p) // serve other processors' block requests
			}
		}
	}
	// Two rounds: make sure everyone finished fetching before the threads
	// stop serving requests.
	m.nd.Flush(p)
	m.nd.Barrier(p)
}

// RunMM executes the blocked matrix multiply on the given nodes and
// returns the timing result plus the per-node C blocks for verification.
func RunMM(nodes []*splitc.Node, cfg MMConfig) (Result, []map[int][]float64) {
	ms := make([]*mmNode, len(nodes))
	for i, nd := range nodes {
		ms[i] = &mmNode{nd: nd, cfg: cfg}
		ms[i].setup()
	}
	times := splitc.Run(nodes, func(p *sim.Proc, nd *splitc.Node) {
		ms[nd.Self()].run(p)
	})
	cs := make([]map[int][]float64, len(nodes))
	for i, m := range ms {
		cs[i] = m.c
	}
	return collect(nodes, times), cs
}

// MMReference computes the reference product serially for verification.
func MMReference(cfg MMConfig) map[int][]float64 {
	g, b := cfg.Grid, cfg.Block
	out := map[int][]float64{}
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			c := make([]float64, b*b)
			for k := 0; k < g; k++ {
				a := genBlock(1, i, k, b)
				bb := genBlock(2, k, j, b)
				for r := 0; r < b; r++ {
					for kk := 0; kk < b; kk++ {
						ark := a[r*b+kk]
						for cc := 0; cc < b; cc++ {
							c[r*b+cc] += ark * bb[kk*b+cc]
						}
					}
				}
			}
			out[i*g+j] = c
		}
	}
	return out
}
