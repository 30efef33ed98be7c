// Package topo is the declarative topology layer, the one way a fabric is
// built: a topology graph spec — hosts, switches, trunks, with host-link and
// switch timing and per-switch finite output queues — plus generators for
// the paper's single ASX-200 with a host on every port (Star) and for the
// datacenter shapes it cannot express (2- and 3-stage Clos/fat-tree
// fabrics, ring and island overlays), and a compiler that instantiates the
// spec onto the fabric primitives. The U-Net manager, the NIC attach path
// and every testbed fixture program the compiled Fabric directly; routes
// become multi-hop — one per-stage table entry installed at every switch
// along the computed path (§3.2's carefully-controlled route set-up,
// stretched across stages).
//
// Everything in the spec is ordered: hosts, switches and trunks are
// slices iterated in declared order, name lookups go through an index
// built once, and path computation breaks ties by declared adjacency
// order. Compilation is therefore a pure function of the spec — two
// compiles of the same spec produce byte-identical simulations at every
// shard count (DESIGN.md §14).
package topo

import (
	"fmt"
	"time"

	"unet/internal/fabric"
)

// DefaultTrunkPropagation is the one-way flight time of an inter-switch
// trunk: tens of rows of machine room rather than tens of meters of rack,
// an order of magnitude beyond fabric.DefaultPropagation.
const DefaultTrunkPropagation = 2 * time.Microsecond

// HostSpec attaches one host to a switch.
type HostSpec struct {
	// Switch names the attaching (top-of-rack) switch.
	Switch string
}

// SwitchSpec declares one switch.
type SwitchSpec struct {
	// Name is the switch's unique name.
	Name string
	// Stage is the switch's distance from the hosts: 0 for a
	// top-of-rack/leaf switch, 1 for aggregation/spine, 2 for core.
	Stage int
	// QueueCells bounds every output-port queue of this switch (tail drop
	// on overflow); 0 keeps the queue unbounded. Per-stage bounds model
	// the shallow buffers where incast hurts: at the aggregation layer.
	QueueCells int
}

// TrunkSpec declares a full-duplex inter-switch trunk: one serializing
// link in each direction between switches A and B, each at the TAXI cell
// time with DefaultTrunkPropagation flight.
type TrunkSpec struct {
	A, B string
}

// Spec is a declarative topology: the complete graph a fabric is compiled
// from. The zero value of every timing field falls back to the paper's
// calibrated constants.
type Spec struct {
	// Name prefixes every link and switch name (defaults to "topo").
	Name string
	// Kind labels the generated shape ("star", "clos2", "clos3", "ring",
	// "island", or "" for hand-built specs); reporting only.
	Kind string
	// HostLink is the host↔switch timing; a zero field falls back to the
	// 140 Mbit/s TAXI link's.
	HostLink fabric.LinkParams
	// SwitchLatency is every switch's forwarding latency
	// (0 = fabric.DefaultSwitchLatency).
	SwitchLatency time.Duration

	Hosts    []HostSpec
	Switches []SwitchSpec
	Trunks   []TrunkSpec
}

// Stages returns the number of distinct switch stages in the spec.
func (s *Spec) Stages() int {
	max := -1
	for i := range s.Switches {
		if s.Switches[i].Stage > max {
			max = s.Switches[i].Stage
		}
	}
	return max + 1
}

// hostLink resolves the host links' timing.
func (s *Spec) hostLink() fabric.LinkParams {
	lp := s.HostLink
	if lp.CellTime == 0 {
		lp.CellTime = fabric.DefaultCellTime
	}
	if lp.Propagation == 0 {
		lp.Propagation = fabric.DefaultPropagation
	}
	return lp
}

// switchLatency resolves the switches' forwarding latency.
func (s *Spec) switchLatency() time.Duration {
	if s.SwitchLatency != 0 {
		return s.SwitchLatency
	}
	return fabric.DefaultSwitchLatency
}

// Validate checks the spec's structural invariants: non-empty, unique
// names, resolvable attachments and trunk endpoints, and a connected
// switch graph (every host pair must have a path).
func (s *Spec) Validate() error {
	if len(s.Hosts) == 0 {
		return fmt.Errorf("topo: spec %q has no hosts", s.Name)
	}
	if len(s.Switches) == 0 {
		return fmt.Errorf("topo: spec %q has no switches", s.Name)
	}
	swIdx := make(map[string]int, len(s.Switches))
	for i := range s.Switches {
		sw := &s.Switches[i]
		if sw.Name == "" {
			return fmt.Errorf("topo: switch %d has no name", i)
		}
		if _, dup := swIdx[sw.Name]; dup {
			return fmt.Errorf("topo: duplicate switch name %q", sw.Name)
		}
		if sw.Stage < 0 {
			return fmt.Errorf("topo: switch %q has negative stage %d", sw.Name, sw.Stage)
		}
		swIdx[sw.Name] = i
	}
	for i := range s.Hosts {
		if _, ok := swIdx[s.Hosts[i].Switch]; !ok {
			return fmt.Errorf("topo: host %d attaches to unknown switch %q", i, s.Hosts[i].Switch)
		}
	}
	adj := make([][]int, len(s.Switches))
	for i := range s.Trunks {
		t := &s.Trunks[i]
		a, ok := swIdx[t.A]
		if !ok {
			return fmt.Errorf("topo: trunk %d endpoint %q is not a switch", i, t.A)
		}
		b, ok := swIdx[t.B]
		if !ok {
			return fmt.Errorf("topo: trunk %d endpoint %q is not a switch", i, t.B)
		}
		if a == b {
			return fmt.Errorf("topo: trunk %d connects switch %q to itself", i, t.A)
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	// Connectivity over the switch graph: BFS from the first host's
	// switch must reach every switch that has hosts attached (isolated
	// spare switches would be pointless but harmless; unreachable hosts
	// are an error).
	seen := make([]bool, len(s.Switches))
	start := swIdx[s.Hosts[0].Switch]
	seen[start] = true
	frontier := []int{start}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				frontier = append(frontier, nb)
			}
		}
	}
	for i := range s.Hosts {
		if sw := swIdx[s.Hosts[i].Switch]; !seen[sw] {
			return fmt.Errorf("topo: host %d's switch %q is unreachable from host 0's switch %q", i, s.Hosts[i].Switch, s.Hosts[0].Switch)
		}
	}
	return nil
}
