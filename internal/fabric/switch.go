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
	in      []LabelTable[xlate] // per input port, indexed by arriving label
	wait    []portQueue         // per input port: cells waiting for their forwarding job
	labels  []Labels            // per output port: the outgoing link's label space
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
// carries on that port's link. The zero row is no route.
type xlate struct {
	port int32
	out  atm.VCI
	ok   bool
}

// portQueue holds an input port's relabelled cells until their job fires.
// One link feeds the port in arrival order and a job starts at its first
// cell's arrival plus the latency, so each job finds its run at the head.
type portQueue struct {
	cells  sim.Ring[atm.Cell]
	queued uint64 // cells ever queued
}

// fwdJob carries one run of same-route cells across the switch's forwarding
// latency. Jobs are pooled on the switch: forwarding a train in steady
// state allocates nothing. The job fires at the forwarding time of its
// first cell and hands the run to the output link in one SendRun per ring
// chunk — the link's serialization yields the same departure times as
// per-cell forwarding events would have.
type fwdJob struct {
	s       *Switch
	link    *Link
	port    int
	in      int
	n       int           // cells in the run, waiting in s.wait[in]
	pos     uint64        // s.wait[in].queued when the run's first cell was queued
	start   time.Duration // forwarding time of the run's first cell
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
	q := &s.wait[j.in]
	if head := q.queued - uint64(q.cells.Len()); head != j.pos {
		panic(fmt.Sprintf("fabric: switch %s input port %d: the job for cell %d found cell %d at the head of the queue", s.name, j.in, j.pos, head))
	}
	for left := j.n; left > 0; {
		run := q.cells.Span(left)
		t = s.forward(j.link, j.port, run, t, j.spacing)
		q.cells.Drop(len(run))
		left -= len(run)
	}
	j.link = nil
	j.next = s.free
	s.free = j
}

// forward puts cells[i], forwarded at t + i*spacing, on output port's link
// and returns the forwarding time of the cell after them. A finite output
// queue tail-drops a cell whose forwarding instant finds the link's
// committed serialization debt already covering qcells cells; its arrival
// slot stays empty, and the link is not charged for it. The debt follows
// the link's own departure rule (idleFrom, depart), so each stretch of
// cells the queue accepts goes to the link in one SendRun.
func (s *Switch) forward(l *Link, port int, cells []atm.Cell, t, spacing time.Duration) time.Duration {
	if s.qcells == 0 {
		l.SendRun(cells, t, spacing)
		return t + time.Duration(len(cells))*spacing
	}
	qlimit := time.Duration(s.qcells) * l.p.CellTime
	free := l.idleFrom()
	for i := 0; i < len(cells); {
		k, start := i, t
		for ; k < len(cells) && free-t < qlimit; k++ {
			free = l.depart(free, t)
			t += spacing
		}
		l.SendRun(cells[i:k], start, spacing)
		if k < len(cells) {
			s.qdrops[port]++
			t += spacing
			k++
		}
		i = k
	}
	return t
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
	wait := make([]portQueue, len(out))
	for i := range wait {
		wait[i].cells = sim.NewRing[atm.Cell](e)
	}
	return &Switch{e: e, name: name, latency: latency, in: make([]LabelTable[xlate], len(out)), wait: wait, labels: make([]Labels, len(out)), out: out, qdrops: make([]uint64, len(out))}
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
	*s.in[in].Put(label) = xlate{port: int32(port), out: out, ok: true}
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
	*s.in[in].At(vci) = xlate{}
}

// Lookup reports the output port and outgoing label installed for
// (in, vci), if any. The multi-hop tear-down walk in internal/topo uses it
// to follow a circuit's own table entries from stage to stage.
func (s *Switch) Lookup(in int, vci atm.VCI) (port int, out atm.VCI, ok bool) {
	if in < 0 || in >= len(s.in) {
		return 0, 0, false
	}
	r := s.in[in].Get(vci)
	return int(r.port), r.out, r.ok
}

// TableSpan reports input port in's table: its base label and its rows —
// set-up state, bounded by the labels in use on the incoming link.
func (s *Switch) TableSpan(in int) (atm.VCI, int) { return s.in[in].Base(), len(s.in[in].Rows()) }

// UnknownVCICells reports cells dropped for lack of a route.
func (s *Switch) UnknownVCICells() uint64 { return s.unknown }

// OutputLink exposes a port's output link, e.g. for loss injection.
func (s *Switch) OutputLink(port int) *Link { return s.out[port] }

// Ports returns the switch's port count.
func (s *Switch) Ports() int { return len(s.out) }

// portSink is the receive side of one input port.
type portSink struct {
	s  *Switch
	in int
}

func (ps portSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	ps.s.DeliverTrain(ps.in, cells, first, spacing)
}

func (ps portSink) DeliverRun(r *sim.Ring[atm.Cell], n int, first, spacing time.Duration) {
	ps.s.DeliverRun(ps.in, r, n, first, spacing)
}

// PortSink returns the RunSink for input port in: uplinks must deliver
// through their port's sink so the switch can enforce per-input-port
// routes. It boxes a value, so wiring keeps the result; a sink that must
// find its switch at delivery time calls DeliverTrain or DeliverRun.
func (s *Switch) PortSink(in int) RunSink {
	return portSink{s: s, in: in}
}

// DeliverTrain forwards a back-to-back train on input port in: cells[i]
// arrives at first + i*spacing, and a single cell is a train of one.
// Consecutive cells bound for the same output port are forwarded by one
// pooled job; cells on unrouted VCIs are dropped and break the run (their
// wire slot stays empty). A run is copied into the input port's queue a
// chunk at a time and relabelled there; the job holds only its count.
//
//unetlint:hotpath per-train label swap; runs for every train crossing the switch
func (s *Switch) DeliverTrain(in int, cells []atm.Cell, first, spacing time.Duration) {
	w := sim.WalkSlice(cells)
	s.receive(in, &w, len(cells), first, spacing)
}

// DeliverRun is DeliverTrain of the n oldest cells of r, read off the ring
// where they lie (RunSink): a same-route run carries on across a chunk
// boundary in the same job.
//
//unetlint:hotpath per-train label swap for a train that straddles ring chunks
func (s *Switch) DeliverRun(in int, r *sim.Ring[atm.Cell], n int, first, spacing time.Duration) {
	w := r.Walk(n)
	s.receive(in, &w, n, first, spacing)
}

// receive is DeliverTrain's and DeliverRun's one core: it forwards the n
// cells w reads, a stretch (seg) at a time. A run that reaches the end of
// a stretch has its length found on a copy of the walk first, so the port
// queue takes it with one Room call a chunk, sized for what is left of the
// run, as for a run handed over in one slice.
func (s *Switch) receive(in int, w *sim.Walk[atm.Cell], n int, first, spacing time.Duration) {
	t, q := s.in[in], &s.wait[in]
	var seg []atm.Cell
	for i := 0; i < n; {
		if len(seg) == 0 {
			seg = w.Next(n)
		}
		r := t.Get(seg[0].VCI)
		if !r.ok {
			s.unknown++
			seg = seg[1:]
			i++
			continue
		}
		k, v := sameRoute(t, r, seg[0].VCI, seg[1:])
		run := k + 1
		if run == len(seg) {
			for ahead := *w; ; {
				rest := ahead.Next(n)
				k, v = sameRoute(t, r, v, rest)
				run += k
				if k < len(rest) || len(rest) == 0 {
					break
				}
			}
		}
		j := s.getJob()
		j.link = s.out[r.port]
		j.port = int(r.port)
		j.in, j.n, j.pos = in, run, q.queued
		for left := run; left > 0; {
			dst := q.cells.Room(left)
			for k := 0; k < len(dst); {
				if len(seg) == 0 {
					seg = w.Next(n)
				}
				c := copy(dst[k:], seg)
				seg, k = seg[c:], k+c
			}
			relabel(t, dst)
			left -= len(dst)
		}
		q.queued += uint64(run)
		j.start = first + time.Duration(i)*spacing + s.latency
		j.spacing = spacing
		s.e.AtArg(j.start, fwdFire, j)
		i += run
	}
}

// sameRoute returns how many of cells, from the first, go out on r's port,
// and the label of the last of them. v is a label known to go there:
// consecutive cells on one label cost one lookup.
func sameRoute(t LabelTable[xlate], r xlate, v atm.VCI, cells []atm.Cell) (int, atm.VCI) {
	for k := range cells {
		if cells[k].VCI == v {
			continue
		}
		if r2 := t.Get(cells[k].VCI); !r2.ok || r2.port != r.port {
			return k, v
		}
		v = cells[k].VCI
	}
	return len(cells), v
}

// relabel rewrites each of cells, all routed, to its outgoing label, with
// one lookup for consecutive cells on one label.
func relabel(t LabelTable[xlate], cells []atm.Cell) {
	for k := 0; k < len(cells); {
		v := cells[k].VCI
		out := t.Get(v).out
		for ; k < len(cells) && cells[k].VCI == v; k++ {
			cells[k].VCI = out
		}
	}
}
