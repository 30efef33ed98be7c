package fabric

import (
	"fmt"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// DefaultSwitchLatency is the ASX-200 cut-through forwarding latency per
// cell, calibrated so that the SBA-100 trap-level one-way time across the
// switch lands at the paper's 21 µs (Table 1) together with the trap costs.
const DefaultSwitchLatency = 2 * time.Microsecond

// Switch is a label-swapping output-queued ATM switch. Each output port is
// a Link to the attached host; contention for an output port is resolved by
// that link's serialization. Cells on unrouted VCIs are counted and
// dropped, as a real switch would discard cells on unconfigured channels.
//
// Routes are keyed by (input port, VCI), as in a real ATM switch: a VCI is
// only valid on the input port it was provisioned for, and is rewritten to
// the outgoing link's label as the cell is forwarded. This is what lets
// carefully controlled route set-up extend U-Net's protection across the
// network (§3.2) — a host cannot inject cells on another pair's channel,
// because its input port has no route for that VCI.
type Switch struct {
	e       *sim.Engine
	name    string
	latency time.Duration
	in      []labelTable // per input port, indexed by arriving label
	labels  []Labels     // per output port: the outgoing link's label space
	out     []*Link
	unknown uint64
	free    *fwdJob // recycled forwarding jobs

	// qcells bounds each output port's queue: a cell is tail-dropped when
	// the port's serialization backlog already holds qcells cells' worth of
	// time. 0 means unbounded (the seed behavior).
	qcells int
	qdrops []uint64 // per-port tail drops
}

// xlate is one label-table row: the output port and the label the cell
// carries on that port's link.
type xlate struct {
	port int32
	out  atm.VCI
	ok   bool
}

// labelTable is one input port's routes, dense in the arriving label; the
// zero row is no route.
type labelTable []xlate

func (t labelTable) row(v atm.VCI) xlate {
	if int(v) < len(t) {
		return t[v]
	}
	return xlate{}
}

// fwdJob carries one run of same-route cells across the switch's forwarding
// latency. Jobs are pooled on the switch: forwarding a train in steady
// state allocates nothing. The job fires at the forwarding time of its
// first cell and enqueues the rest arithmetically via SendAt — the output
// link's serialization yields the same departure times as per-cell
// forwarding events would have.
type fwdJob struct {
	s       *Switch
	link    *Link
	port    int
	cells   []atm.Cell
	start   time.Duration // forwarding time of cells[0]
	spacing time.Duration
	next    *fwdJob
}

// fwdFire is the static callback shared by all forwarding jobs.
//
//unetlint:hotpath per-run forwarding callback; runs for every run of cells crossing the switch
func fwdFire(a any) {
	j := a.(*fwdJob)
	t := j.start
	s := j.s
	qlimit := time.Duration(s.qcells) * j.link.p.CellTime
	for _, c := range j.cells {
		// Finite output queue: if the port's committed serialization debt at
		// the forwarding instant already covers qcells cells, this cell finds
		// the queue full and is tail-dropped. Its arrival slot stays empty —
		// the link is not charged for a cell that never entered the queue.
		if qlimit > 0 && j.link.NextFree()-t >= qlimit {
			s.qdrops[j.port]++
			t += j.spacing
			continue
		}
		j.link.SendAt(c, t)
		t += j.spacing
	}
	j.cells = j.cells[:0]
	j.link = nil
	j.next = s.free
	s.free = j
}

func (s *Switch) getJob() *fwdJob {
	j := s.free
	if j == nil {
		//unetlint:allow hotpathalloc free-list growth: the list reaches the switch's peak of trains in flight and every later job is recycled
		return &fwdJob{s: s}
	}
	s.free = j.next
	j.next = nil
	return j
}

// NewSwitch creates a switch with nports output ports, each serialized by a
// link with params lp delivering into the corresponding sink.
func NewSwitch(e *sim.Engine, name string, nports int, latency time.Duration, lp LinkParams, sinks []CellSink) *Switch {
	if len(sinks) != nports {
		panic(fmt.Sprintf("fabric: %d sinks for %d ports", len(sinks), nports))
	}
	out := make([]*Link, nports)
	for i := 0; i < nports; i++ {
		out[i] = NewLink(e, fmt.Sprintf("%s.port%d", name, i), lp, sinks[i])
	}
	return NewSwitchWithLinks(e, name, latency, out)
}

// NewSwitchWithLinks creates a switch over pre-built output links — the
// constructor internal/topo compiles every switch through, where an output port toward a host in
// another shard is a cross-shard link. Every link's transmitter must run on
// e, the switch's own shard.
func NewSwitchWithLinks(e *sim.Engine, name string, latency time.Duration, out []*Link) *Switch {
	for _, l := range out {
		if l.Engine() != e {
			panic(fmt.Sprintf("fabric: switch %s output link %s transmits on a foreign shard", name, l.name))
		}
	}
	return &Switch{e: e, name: name, latency: latency, in: make([]labelTable, len(out)), labels: make([]Labels, len(out)), out: out, qdrops: make([]uint64, len(out))}
}

// SetOutputQueueCells bounds every output port's queue to n cells; cells
// forwarded to a port whose backlog is full are tail-dropped and counted
// in QueueDrops. n <= 0 restores the unbounded queue.
func (s *Switch) SetOutputQueueCells(n int) {
	if n < 0 {
		n = 0
	}
	s.qcells = n
}

// QueueDrops reports cells tail-dropped at an output port's finite queue.
func (s *Switch) QueueDrops(port int) uint64 { return s.qdrops[port] }

// TotalQueueDrops sums tail drops over all output ports.
func (s *Switch) TotalQueueDrops() uint64 {
	var sum uint64
	for _, d := range s.qdrops {
		sum += d
	}
	return sum
}

// install writes the row for (in, label) → port, replacing what it held.
// keep routes the cell on under the same label, marked used on the output
// link; otherwise the output link's lowest free label is taken.
func (s *Switch) install(in int, label atm.VCI, port int, keep bool) (out atm.VCI, err error) {
	if port < 0 || port >= len(s.out) {
		return 0, fmt.Errorf("fabric: route %d → invalid port %d", label, port)
	}
	if in < 0 || in >= len(s.out) {
		return 0, fmt.Errorf("fabric: route %d from invalid input port %d", label, in)
	}
	s.Unroute(in, label)
	if out = label; keep {
		s.labels[port].Take(label)
	} else if out, err = s.labels[port].Alloc(s.out[port].name); err != nil {
		return 0, err
	}
	t := s.in[in]
	if n := int(label) + 1 - len(t); n > 0 {
		t = append(t, make(labelTable, n)...)
	}
	t[label] = xlate{port: int32(port), out: out, ok: true}
	s.in[in] = t
	return out, nil
}

// Swap provisions one stage of a circuit: cells arriving on input port in
// with label leave on port carrying the lowest free label of that port's
// link, which Swap takes and returns. In the paper the collection of
// operating systems programs switch paths during channel set-up (§3.2).
func (s *Switch) Swap(in int, label atm.VCI, port int) (atm.VCI, error) {
	return s.install(in, label, port, false)
}

// Route installs (or replaces) the output port for a VCI arriving on input
// port in, keeping the label: the explicit, same-label-on-both-links case
// of Swap, drawing on the same label space.
func (s *Switch) Route(in int, vci atm.VCI, port int) error {
	_, err := s.install(in, vci, port, true)
	return err
}

// Unroute removes a route (channel tear-down) and frees its outgoing label.
func (s *Switch) Unroute(in int, vci atm.VCI) {
	port, out, ok := s.Lookup(in, vci)
	if !ok {
		return
	}
	s.labels[port].Free(out)
	s.in[in][vci] = xlate{}
}

// Lookup reports the output port and outgoing label installed for
// (in, vci), if any. The multi-hop tear-down walk in internal/topo uses it
// to follow a circuit's own table entries from stage to stage.
func (s *Switch) Lookup(in int, vci atm.VCI) (port int, out atm.VCI, ok bool) {
	if in < 0 || in >= len(s.in) {
		return 0, 0, false
	}
	r := s.in[in].row(vci)
	return int(r.port), r.out, r.ok
}

// TableLen reports the length of input port in's label table — set-up
// state, bounded by the labels in use on the incoming link.
func (s *Switch) TableLen(in int) int { return len(s.in[in]) }

// UnknownVCICells reports cells dropped for lack of a route.
func (s *Switch) UnknownVCICells() uint64 { return s.unknown }

// OutputLink exposes a port's output link, e.g. for loss injection.
func (s *Switch) OutputLink(port int) *Link { return s.out[port] }

// Ports returns the switch's port count.
func (s *Switch) Ports() int { return len(s.out) }

// portSink is the receive side of one input port. It implements TrainSink
// so the uplink can hand over whole cell trains.
type portSink struct {
	s  *Switch
	in int
}

func (ps portSink) DeliverCell(c atm.Cell) { ps.s.DeliverCell(ps.in, c) }

func (ps portSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	ps.s.DeliverTrain(ps.in, cells, first, spacing)
}

// PortSink returns the CellSink for input port in: uplinks must deliver
// through their port's sink so the switch can enforce per-input-port
// routes. It boxes a value, so wiring keeps the result; a sink that must
// find its switch at delivery time calls DeliverCell and DeliverTrain.
func (s *Switch) PortSink(in int) CellSink {
	return portSink{s: s, in: in}
}

// DeliverCell forwards a cell arriving now on input port in.
func (s *Switch) DeliverCell(in int, c atm.Cell) { s.deliver(in, c, s.e.Now()) }

// deliver forwards a single cell arriving at time at on input port in.
//
//unetlint:hotpath per-cell label swap; runs for every cell a per-cell link hands over
func (s *Switch) deliver(in int, c atm.Cell, at time.Duration) {
	r := s.in[in].row(c.VCI)
	if !r.ok {
		s.unknown++
		return
	}
	c.VCI = r.out
	j := s.getJob()
	j.link = s.out[r.port]
	j.port = int(r.port)
	j.cells = append(j.cells, c)
	j.start = at + s.latency
	j.spacing = 0
	s.e.AtArg(j.start, fwdFire, j)
}

// DeliverTrain forwards a back-to-back train on input port in: cells[i]
// arrives at first + i*spacing. Consecutive cells bound for the same output port are
// forwarded by one pooled job; cells on unrouted VCIs are dropped and break
// the run (their wire slot stays empty, exactly as per-cell forwarding
// would leave it). A run is copied in bulk and relabelled in place:
// appending cell by cell grows the job's slice through every size class.
//
//unetlint:hotpath per-train label swap; runs for every train crossing the switch
func (s *Switch) DeliverTrain(in int, cells []atm.Cell, first, spacing time.Duration) {
	t := s.in[in]
	for i := 0; i < len(cells); {
		r := t.row(cells[i].VCI)
		if !r.ok {
			s.unknown++
			i++
			continue
		}
		run := i + 1
		for run < len(cells) {
			if r2 := t.row(cells[run].VCI); !r2.ok || r2.port != r.port {
				break
			}
			run++
		}
		j := s.getJob()
		j.link = s.out[r.port]
		j.port = int(r.port)
		j.cells = append(j.cells, cells[i:run]...)
		for k := range j.cells {
			j.cells[k].VCI = t[j.cells[k].VCI].out
		}
		j.start = first + time.Duration(i)*spacing + s.latency
		j.spacing = spacing
		s.e.AtArg(j.start, fwdFire, j)
		i = run
	}
}
