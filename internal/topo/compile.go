package topo

import (
	"fmt"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
)

// Fabric is a compiled topology: the spec's switches instantiated as
// fabric.Switch instances, its trunks as serializing links between switch
// ports, and its hosts as uplink/downlink pairs on their attaching
// switch. It is the surface the U-Net manager and the NIC attach path
// program; Provision swaps labels at one table entry per switch along the
// computed path — a single entry on the paper's one-switch cluster (Star).
type Fabric struct {
	Engine *sim.Engine
	Spec   *Spec
	// Switches holds the compiled switches in spec declaration order.
	Switches []*fabric.Switch

	swEng   []*sim.Engine
	hostEng []*sim.Engine
	uplinks []*fabric.Link
	up      []fabric.Labels // per-host uplink label space

	hostSinks []fabric.CellSink
	hostSw    []int // host → attaching switch index
	hostPort  []int // host → its port on that switch

	// Per-switch port layout: ports [0, len(hostAt[s])) carry hosts (in
	// declared host order), the rest carry trunk endpoints (in declared
	// trunk order). peerSw/peerPort resolve a trunk port to the far side;
	// trunkA is each declared trunk's A-side (switch, port).
	hostAt   [][]int
	peerSw   [][]int
	peerPort [][]int
	trunkA   [][2]int

	// reach[d] is the search for next hops toward destination switch d,
	// as far as routes have needed it (nil until the first one).
	reach []*reach

	undeliv uint64
}

// hostPortSink indirects a switch output port to the host sink registered
// later with SetHostSink: trains pass through when the sink understands
// them (the NIC models do), and otherwise fall back to per-cell deliveries
// at the train's arrival times.
type hostPortSink struct {
	f *Fabric
	i int
}

func (h hostPortSink) DeliverCell(cell atm.Cell) {
	s := h.f.hostSinks[h.i]
	if s == nil {
		h.f.undeliv++
		return
	}
	s.DeliverCell(cell)
}

func (h hostPortSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	s := h.f.hostSinks[h.i]
	if s == nil {
		h.f.undeliv += uint64(len(cells))
		return
	}
	if ts, ok := s.(fabric.TrainSink); ok {
		ts.DeliverTrain(cells, first, spacing)
		return
	}
	// Per-cell fallback: cells[k] for k > 0 arrive in the future, so they
	// must be re-scheduled (the train slice is only valid during this call,
	// hence the per-cell copy into the closure). Scheduling goes to the
	// host's own shard engine — the train was delivered there.
	for k := 1; k < len(cells); k++ {
		cell := cells[k]
		h.f.hostEng[h.i].At(first+time.Duration(k)*spacing, func() { h.DeliverCell(cell) })
	}
	h.DeliverCell(cells[0])
}

// trunkSink indirects a trunk link's receive side to the peer switch's
// input port. The indirection is what breaks the construction cycle: a
// switch's output links must exist before the switch is built, but a
// trunk's far-end switch may not exist yet — the sink resolves it at
// delivery time instead. Trains delegate to the switch port's own train
// path, so multi-hop delivery schedules are the ones direct wiring would
// have produced.
type trunkSink struct {
	f    *Fabric
	sw   int
	port int
}

func (t trunkSink) DeliverCell(c atm.Cell) {
	t.f.Switches[t.sw].DeliverCell(t.port, c)
}

func (t trunkSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	t.f.Switches[t.sw].DeliverTrain(t.port, cells, first, spacing)
}

// Compile instantiates spec onto the fabric primitives. hostEng[i] is the
// shard engine host i's NIC and processes run on and swEng[j] the engine
// switch j forwards on (nil entries, or nil slices, mean the root
// engine). Any edge whose endpoints live on different engines becomes a
// cross-shard link, which registers the link latency as the pair's
// lookahead — the trunk propagation is what keeps inter-shard windows
// wide. Construction iterates hosts, switches and trunks strictly in
// declared order, so two compiles of the same spec wire identical event
// and exchange registration sequences.
func Compile(root *sim.Engine, spec *Spec, hostEng, swEng []*sim.Engine) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = "topo"
	}
	nh, ns := len(spec.Hosts), len(spec.Switches)
	if hostEng == nil {
		hostEng = make([]*sim.Engine, nh)
	}
	if swEng == nil {
		swEng = make([]*sim.Engine, ns)
	}
	if len(hostEng) != nh || len(swEng) != ns {
		return nil, fmt.Errorf("topo: %d host / %d switch engines for %d hosts / %d switches", len(hostEng), len(swEng), nh, ns)
	}
	f := &Fabric{
		Engine:    root,
		Spec:      spec,
		Switches:  make([]*fabric.Switch, ns),
		swEng:     make([]*sim.Engine, ns),
		hostEng:   make([]*sim.Engine, nh),
		uplinks:   make([]*fabric.Link, nh),
		up:        make([]fabric.Labels, nh),
		hostSinks: make([]fabric.CellSink, nh),
		hostSw:    make([]int, nh),
		hostPort:  make([]int, nh),
		hostAt:    make([][]int, ns),
		peerSw:    make([][]int, ns),
		peerPort:  make([][]int, ns),
		reach:     make([]*reach, ns),
	}
	for j := 0; j < ns; j++ {
		f.swEng[j] = engineOr(swEng[j], root)
	}
	for i := 0; i < nh; i++ {
		f.hostEng[i] = engineOr(hostEng[i], root)
	}

	swIdx := make(map[string]int, ns)
	for j := range spec.Switches {
		swIdx[spec.Switches[j].Name] = j
	}

	// Port layout: hosts first (declared order), then trunk endpoints
	// (declared order). Recorded before any link exists so trunk sinks can
	// name their far-end port up front.
	for i := range spec.Hosts {
		sw := swIdx[spec.Hosts[i].Switch]
		f.hostSw[i] = sw
		f.hostPort[i] = len(f.hostAt[sw])
		f.hostAt[sw] = append(f.hostAt[sw], i)
	}
	for t := range spec.Trunks {
		a, b := swIdx[spec.Trunks[t].A], swIdx[spec.Trunks[t].B]
		pa := len(f.hostAt[a]) + len(f.peerSw[a])
		f.peerSw[a] = append(f.peerSw[a], b)
		pb := len(f.hostAt[b]) + len(f.peerSw[b])
		f.peerSw[b] = append(f.peerSw[b], a)
		f.peerPort[a] = append(f.peerPort[a], pb)
		f.peerPort[b] = append(f.peerPort[b], pa)
		f.trunkA = append(f.trunkA, [2]int{a, pa})
	}

	// Build each switch over its pre-built output links: host ports
	// deliver through hostPortSink, trunk ports through trunkSink into the
	// far switch. A link whose endpoints live on different engines is a
	// cross-shard link.
	hostLink, latency := spec.hostLink(), spec.switchLatency()
	trunkLink := fabric.LinkParams{CellTime: fabric.DefaultCellTime, Propagation: DefaultTrunkPropagation}
	for j := 0; j < ns; j++ {
		swName := fmt.Sprintf("%s.%s", name, spec.Switches[j].Name)
		var out []*fabric.Link
		for p, host := range f.hostAt[j] {
			lname := fmt.Sprintf("%s.port%d", swName, p)
			out = append(out, newLinkBetween(f.swEng[j], f.hostEng[host], lname, hostLink, hostPortSink{f: f, i: host}))
		}
		for k, peer := range f.peerSw[j] {
			p := len(f.hostAt[j]) + k
			lname := fmt.Sprintf("%s.port%d", swName, p)
			out = append(out, newLinkBetween(f.swEng[j], f.swEng[peer], lname, trunkLink, trunkSink{f: f, sw: peer, port: f.peerPort[j][k]}))
		}
		f.Switches[j] = fabric.NewSwitchWithLinks(f.swEng[j], swName, latency, out)
		if q := spec.Switches[j].QueueCells; q > 0 {
			f.Switches[j].SetOutputQueueCells(q)
		}
	}

	// Host uplinks into the attaching switch's host port.
	for i := range spec.Hosts {
		sw := f.hostSw[i]
		uname := fmt.Sprintf("%s.up%d", name, i)
		f.uplinks[i] = newLinkBetween(f.hostEng[i], f.swEng[sw], uname, hostLink, f.Switches[sw].PortSink(f.hostPort[i]))
	}

	return f, nil
}

// MustCompile is Compile for generated specs that cannot fail validation.
func MustCompile(root *sim.Engine, spec *Spec, hostEng, swEng []*sim.Engine) *Fabric {
	f, err := Compile(root, spec, hostEng, swEng)
	if err != nil {
		panic(err)
	}
	return f
}

func engineOr(e, root *sim.Engine) *sim.Engine {
	if e == nil {
		return root
	}
	return e
}

// newLinkBetween builds a link from src to dst engine: a plain link when
// they coincide, a cross-shard link (registering its latency as the pair
// lookahead) when they differ.
func newLinkBetween(src, dst *sim.Engine, name string, lp fabric.LinkParams, sink fabric.CellSink) *fabric.Link {
	if src == dst {
		return fabric.NewLink(src, name, lp, sink)
	}
	return fabric.NewCrossLink(src, dst, name, lp, sink)
}

// reach is one destination's breadth-first search over the trunk graph,
// paused: port holds every switch discovered so far with its output port
// toward the destination, queue the discovered switches not yet expanded —
// as large as the part of the graph routes have had to look at.
type reach struct {
	port  map[int]int
	queue []int
}

// nextHop returns the output port at switch sw toward destination switch
// dst (-1 when there is no path), resuming dst's search only until sw is
// discovered. Neighbors are explored in declared trunk-endpoint order and
// the first parent found wins, whenever the search happens to run, so the
// plan is a pure function of the spec; generators exploit the tie-break by
// rotating their trunk declarations (Clos racks elect different spines per
// destination).
func (f *Fabric) nextHop(sw, dst int) int {
	r := f.reach[dst]
	if r == nil {
		r = &reach{port: map[int]int{dst: -1}, queue: []int{dst}}
		f.reach[dst] = r
	}
	for {
		if out, ok := r.port[sw]; ok {
			return out
		}
		if len(r.queue) == 0 {
			return -1
		}
		cur := r.queue[0]
		r.queue = r.queue[1:]
		for k, peer := range f.peerSw[cur] {
			if _, seen := r.port[peer]; !seen {
				// The trunk cur—peer, seen from peer's side, is peer's
				// port toward cur; cur is one hop closer to dst, so that
				// port is peer's next hop.
				r.port[peer] = f.peerPort[cur][k]
				r.queue = append(r.queue, peer)
			}
		}
	}
}

// far resolves trunk port out of switch sw to the peer switch and the
// input port the trunk enters it on.
func (f *Fabric) far(sw, out int) (peer, in int) {
	k := out - len(f.hostAt[sw])
	return f.peerSw[sw][k], f.peerPort[sw][k]
}

// Path returns the switch indices a cell traverses from host `from` to
// host `to`, in order. Reporting and tests use it; Provision walks the same
// plan.
func (f *Fabric) Path(from, to int) []int {
	sw, dst := f.hostSw[from], f.hostSw[to]
	path := []int{sw}
	for sw != dst {
		out := f.nextHop(sw, dst)
		if out < 0 {
			return nil
		}
		sw, _ = f.far(sw, out)
		path = append(path, sw)
	}
	return path
}

// Size returns the number of hosts.
func (f *Fabric) Size() int { return len(f.uplinks) }

// HostEngine returns the shard engine host's NIC and processes must run on.
func (f *Fabric) HostEngine(host int) *sim.Engine { return f.hostEng[host] }

// Uplink returns host's transmit link into its attaching switch.
func (f *Fabric) Uplink(host int) *fabric.Link { return f.uplinks[host] }

// Downlink returns the last-hop link toward host: its attaching switch's
// output port (for loss and fault injection).
func (f *Fabric) Downlink(host int) *fabric.Link {
	return f.Switches[f.hostSw[host]].OutputLink(f.hostPort[host])
}

// TrunkCount returns the number of declared trunks.
func (f *Fabric) TrunkCount() int { return len(f.Spec.Trunks) }

// TrunkLink returns the A→B direction link of declared trunk t (for fault
// injection on inter-switch paths). The B→A direction is the peer port's
// output link on B.
func (f *Fabric) TrunkLink(t int) *fabric.Link {
	return f.Switches[f.trunkA[t][0]].OutputLink(f.trunkA[t][1])
}

// SetHostSink registers the receive sink (a NIC input FIFO) for host.
func (f *Fabric) SetHostSink(host int, s fabric.CellSink) { f.hostSinks[host] = s }

// Provision sets up a circuit from host `from` to host `to`. Every link
// of the computed path gives its lowest free label and every switch gets
// one (input port, label in) → (output port, label out) entry, so the
// channel remains protected stage by stage — a cell can only follow the
// circuit if it entered at the provisioned port of the first switch,
// exactly §3.2's carefully-controlled route set-up stretched across
// stages. A link out of labels part-way removes the stages installed.
func (f *Fabric) Provision(from, to int) (tx, rx atm.VCI, err error) {
	if tx, err = f.up[from].Alloc(f.uplinks[from].Name()); err != nil {
		return 0, 0, err
	}
	rx, err = f.walk(from, tx, to, (*fabric.Switch).Swap)
	if err != nil {
		f.Unroute(from, tx)
		return 0, 0, err
	}
	return tx, rx, nil
}

// Route installs vci, arriving from host `from`, to be delivered at host
// `to` under the same label on every link: the explicit form of Provision,
// drawing on the same per-link label spaces.
func (f *Fabric) Route(from int, vci atm.VCI, to int) error {
	f.up[from].Take(vci)
	_, err := f.walk(from, vci, to, func(s *fabric.Switch, in int, label atm.VCI, port int) (atm.VCI, error) {
		return label, s.Route(in, label, port)
	})
	return err
}

// walk installs one entry per switch from host `from` to host `to` with
// stage, which returns the label the circuit carries on the stage's output
// link; the result is the label it reaches `to` with.
func (f *Fabric) walk(from int, label atm.VCI, to int, stage func(s *fabric.Switch, in int, label atm.VCI, port int) (atm.VCI, error)) (atm.VCI, error) {
	sw, in := f.hostSw[from], f.hostPort[from]
	dst := f.hostSw[to]
	for sw != dst {
		out := f.nextHop(sw, dst)
		if out < 0 {
			return 0, fmt.Errorf("topo: no path from switch %d to %d", sw, dst)
		}
		var err error
		if label, err = stage(f.Switches[sw], in, label, out); err != nil {
			return 0, err
		}
		sw, in = f.far(sw, out)
	}
	return stage(f.Switches[dst], in, label, f.hostPort[to])
}

// Unroute removes a multi-hop circuit again (channel tear-down). The path
// and the destination are recovered from the installed entries themselves:
// each stage's table names the next stage and the label the circuit
// carries there.
func (f *Fabric) Unroute(from int, vci atm.VCI) {
	f.up[from].Free(vci)
	sw, in := f.hostSw[from], f.hostPort[from]
	for {
		out, next, ok := f.Switches[sw].Lookup(in, vci)
		f.Switches[sw].Unroute(in, vci)
		if !ok || out < len(f.hostAt[sw]) {
			return
		}
		sw, in = f.far(sw, out)
		vci = next
	}
}

// UndeliveredCells counts cells that reached a host port with no attached
// NIC.
func (f *Fabric) UndeliveredCells() uint64 { return f.undeliv }

// SetOutputQueueCells bounds every output-port queue of every switch to n
// cells (testbed fault plans apply their global bound through this;
// per-switch spec QueueCells already applied at compile time are
// overwritten).
func (f *Fabric) SetOutputQueueCells(n int) {
	for _, s := range f.Switches {
		s.SetOutputQueueCells(n)
	}
}

// TotalQueueDrops sums finite-queue tail drops over every switch.
func (f *Fabric) TotalQueueDrops() uint64 {
	var sum uint64
	for _, s := range f.Switches {
		sum += s.TotalQueueDrops()
	}
	return sum
}
