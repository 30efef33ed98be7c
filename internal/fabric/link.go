// Package fabric models the network substrate of the paper's testbed: the
// 140 Mbit/s TAXI fiber links and the Fore ASX-200 ATM switch that connect
// the cluster's workstations. Links serialize cells at line rate (which is
// what makes the fiber saturate, Figure 4) and can inject cell loss; the
// switch forwards by VCI with a fixed cut-through latency and per-output
// queueing.
package fabric

import (
	"math"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// DefaultCellTime is the per-cell serialization time of the 140 Mbit/s TAXI
// fiber. Calibration: the paper quotes a 15.2 MB/s peak AAL5 payload
// bandwidth (§4.2.1), i.e. 48 bytes of payload every ~3.16 µs.
const DefaultCellTime = 3158 * time.Nanosecond

// DefaultPropagation is the one-way fiber propagation delay for a
// machine-room scale link (tens of meters).
const DefaultPropagation = 200 * time.Nanosecond

// CellSink receives cells off a link. NIC input FIFOs and switch ports
// implement it. Delivery happens in engine-callback context, and a single
// cell is a train of one.
//
// DeliverTrain is invoked at the arrival time of the train's head, and
// cells[i] is defined to arrive at first + i*spacing; the sink must account
// for those arrival times arithmetically (they are in the future for
// i > 0). A link hands over as one train every in-flight run whose
// arrivals are spaced exactly one CellTime apart, in this call unless the
// run straddles the link's ring chunks: a RunSink then reads it off the
// ring in one DeliverRun, and any other sink takes it as one train per
// chunk, every call at the run's head, each with its own first. The cells
// slice may be the link's own ring memory, and the link drops those cells
// once the call returns: a sink copies what it needs — a chunk at a time,
// and stamping the train rather than each cell, as the NIC's input FIFO
// and the switch's port queues do — and neither keeps the slice nor
// writes to it.
//
// The contract makes trains virtual-time neutral: a sink that processes
// cell i as if it had been handed over at first + i*spacing sees the
// schedule a cell-by-cell fabric would produce, while the engine pays for
// one event per train rather than one per cell.
type CellSink interface {
	DeliverTrain(cells []atm.Cell, first, spacing time.Duration)
}

// RunSink is a CellSink that also takes a train straight off the link's
// in-flight ring when the train straddles the ring's chunks. DeliverRun is
// DeliverTrain of the ring's n oldest cells, under the same contract: the
// sink reads them (sim.Ring.Walk) a chunk at a time, neither drops, keeps
// nor writes them, and does with them exactly what DeliverTrain would do
// with the same cells gathered into one slice. Every sink a fabric is
// built from is one: the switch's ports, the trunks, the host ports and
// the NIC.
type RunSink interface {
	CellSink
	DeliverRun(r *sim.Ring[atm.Cell], n int, first, spacing time.Duration)
}

// DeliverRun hands sink the n oldest cells of r, arriving at first,
// first+spacing, …: as one train through DeliverRun when sink is a
// RunSink, and otherwise as one DeliverTrain per chunk they lie in. A link
// calls it for a train that straddles chunks, and so does a sink that
// passes such a train on.
//
//unetlint:hotpath per-train delivery of a train that straddles ring chunks
func DeliverRun(sink CellSink, r *sim.Ring[atm.Cell], n int, first, spacing time.Duration) {
	if rs, ok := sink.(RunSink); ok {
		rs.DeliverRun(r, n, first, spacing)
		return
	}
	for w := r.Walk(n); ; {
		cells := w.Next(n)
		if len(cells) == 0 {
			return
		}
		sink.DeliverTrain(cells, first, spacing)
		first += time.Duration(len(cells)) * spacing
	}
}

// SinkFunc adapts a function to the CellSink interface.
type SinkFunc func(c atm.Cell)

// DeliverTrain calls f once per cell, in order, all at the instant of the
// train's head: a SinkFunc sees no per-cell arrival times, so it suits a
// sink that counts or discards cells, not one that times them.
//
//unetlint:allow costcharge adapter only; any processing cost belongs to the wrapped function
//unetlint:allow hotpathalloc adapter only; what the wrapped function allocates is its own budget, and no fabric is compiled with one
func (f SinkFunc) DeliverTrain(cells []atm.Cell, _, _ time.Duration) {
	for _, c := range cells {
		f(c)
	}
}

// LinkParams configures a link's timing.
type LinkParams struct {
	// CellTime is the serialization time of one 53-byte cell.
	CellTime time.Duration
	// Propagation is the one-way flight time.
	Propagation time.Duration
}

// DefaultLinkParams returns 140 Mbit/s TAXI fiber timing.
func DefaultLinkParams() LinkParams {
	return LinkParams{CellTime: DefaultCellTime, Propagation: DefaultPropagation}
}

// LinkStats counts link activity.
type LinkStats struct {
	CellsSent uint64
	CellsLost uint64
	// CellsDuplicated counts extra copies enqueued by an impairment
	// injector (each copy also appears in the receiver's cell count).
	CellsDuplicated uint64
}

// Verdict is an impairment decision for one cell about to leave a
// transmitter: drop it, deliver a second copy, and/or delay its arrival.
type Verdict struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration // extra arrival delay beyond propagation
}

// Injector decides the fate of each transmitted cell; internal/faults
// provides implementations. Judge may mutate the cell in place (bit
// corruption) — the link passes a private copy. Implementations must be
// deterministic functions of their own seeded state and the (cell,
// departure-time) sequence they observe — never of the engine's RNG, the
// wall clock, or anything shard-dependent — so fault outcomes are
// byte-identical at every shard count. Judging must charge no virtual
// time: impairments reshape the delivery schedule, they never stall the
// transmitter.
type Injector interface {
	Judge(c *atm.Cell, depart time.Duration) Verdict
}

// inflight is one cell crossing a shard boundary in a cross link's
// buffer, tagged with its arrival time at the far end (last bit out of the
// transmitter plus propagation) and with how long before that the
// transmitter enqueued it, which orders its delivery among the receiving
// shard's same-instant events. The lead sits in the cell's alignment
// padding, and the struct stays at 64 bytes.
type inflight struct {
	c      atm.Cell
	lead   uint32 // arrive minus the transmitter's clock at enqueue, ns; see wireRun.sent
	arrive time.Duration
}

const maxLead = time.Duration(math.MaxUint32)

// wireRun is a back-to-back run of cells in flight: n cells arriving at
// first, first+CellTime, … A link stamps the run, not its cells; lead is
// the run's first cell's (see inflight), all a receive half needs to arm
// the run's delivery.
type wireRun struct {
	first time.Duration
	n     int32
	lead  uint32
}

// sent returns the transmitter's clock when the run's first cell was
// enqueued. A cell more than maxLead in flight reads as sent maxLead before
// its arrival.
func (r *wireRun) sent() time.Duration { return r.first - time.Duration(r.lead) }

// Link is a unidirectional serializing link: cells handed to Send or SendRun
// depart in order at line rate and are delivered to the sink one
// propagation delay after their last bit leaves. The transmit queue is
// unbounded — the sender (a NIC model) paces itself on NextFree, mirroring a
// NIC output FIFO of finite depth.
//
// In-flight cells live in a ring ordered by arrival time (serialization
// makes arrivals monotonic), drained by a single armed delivery event
// instead of one event per cell; a back-to-back run — consecutive arrivals
// spaced exactly CellTime — is stamped once and handed over in one
// DeliverTrain call, or through DeliverRun when it straddles the ring's
// chunks. Senders book whole runs too: a sender fills the ring's slots
// Room lends, a chunk at a time, as a sink reads a train off it, and
// Commit stamps them.
type Link struct {
	e        *sim.Engine
	name     string
	p        LinkParams
	sink     CellSink
	nextFree time.Duration
	stats    LinkStats
	imp      *impairment // a cross link's transmit half and an injected link only; nil on any other

	pend  sim.Ring[atm.Cell] // cells on the wire, in arrival order, in the delivering engine's cell pool
	runs  sim.Ring[wireRun]  // pend's back-to-back runs, oldest first
	armed bool

	// Cross-shard mode (see NewCrossLink): the transmit side keeps the
	// serialization arithmetic (nextFree, stats, loss) but appends in-flight
	// cells to its peer's rx.out instead of the local pend ring; peer is the
	// receive half in the destination shard, which owns the buffer, the
	// pend ring, the delivery machinery and the train grouping, and alone
	// has rx set. A local link has neither.
	peer *Link
	rx   *crossRx
}

// impairment is what only a link with an injector, or a cross link's
// transmit half, needs, behind one pointer as crossRx is.
type impairment struct {
	inj Injector

	// lastArrive clamps impaired arrivals: the in-flight ring is ordered by
	// arrival time, and a fiber never reorders, so a jittered cell delays
	// everything behind it rather than being overtaken.
	lastArrive time.Duration

	// scratch is the private cell copy handed to the injector. It lives on
	// the heap already, so the Judge interface call never forces the lent
	// cells to escape: the data path stays allocation-free either way.
	scratch atm.Cell
	lent    []atm.Cell // what Room lends a per-cell link's sender
}

// crossRx is what a receive half needs to take its transmit half's cells
// and place their delivery events in the destination shard's event order.
// It hangs off the Link by pointer so the thousands of local links of a
// large fabric do not pay for it.
type crossRx struct {
	// out is what the transmit half sent in the current window, in send
	// order. Only the transmit half's shard appends, during windows; only
	// this half's shard drains, between them.
	out []inflight
	// index is the exchange's registration index, the final tie-break among
	// cross arrivals.
	index int
	// idle is the instant the last delivery left the in-flight ring empty.
	idle time.Duration
}

// NewLink creates a link delivering into sink.
func NewLink(e *sim.Engine, name string, p LinkParams, sink CellSink) *Link {
	if p.CellTime <= 0 {
		p.CellTime = DefaultCellTime
	}
	return &Link{e: e, name: name, p: p, sink: sink, pend: sim.NewRing[atm.Cell](e), runs: sim.NewRing[wireRun](e)}
}

// NewCrossLink creates a link whose transmitter lives in shard engine src
// and whose receiver (sink) lives in shard engine dst. The returned Link is
// the transmit half: senders use it exactly like a local link — Send and
// SendRun serialize against nextFree, NextFree paces the output FIFO, loss
// applies at the transmitter — but cells in flight cross the shard boundary
// in a buffer the destination shard drains between windows, and the
// receive half replays them through the standard in-flight ring so delivery
// times, train grouping and the place of each delivery among the
// destination's same-instant events are the ones a local link would have
// produced.
//
// The link's latency (CellTime + Propagation) is registered as the
// src→dst pair lookahead: a cell sent at time t arrives no earlier than
// t + CellTime + Propagation, which is exactly the bound the conservative
// window protocol needs. The group's window is the least lookahead of any
// pair that carries an exchange, so the testbed's host links, which share
// one timing, set it.
func NewCrossLink(src, dst *sim.Engine, name string, p LinkParams, sink CellSink) *Link {
	if p.CellTime <= 0 {
		p.CellTime = DefaultCellTime
	}
	g := src.Group()
	if g == nil || dst.Group() != g {
		panic("fabric: cross link endpoints must share a shard group")
	}
	if src == dst {
		panic("fabric: cross link endpoints are the same shard; use NewLink")
	}
	peer := &Link{e: dst, name: name, p: p, sink: sink, rx: &crossRx{}, pend: sim.NewRing[atm.Cell](dst), runs: sim.NewRing[wireRun](dst)}
	l := &Link{e: src, name: name, p: p, peer: peer, imp: &impairment{}}
	peer.rx.index = g.AddExchangeFrom(src, dst, crossExchange{l})
	g.ObserveLookaheadBetween(src, dst, p.CellTime+p.Propagation)
	return l
}

// Engine returns the engine the link's transmitter runs on. NIC models use
// it to assert shard affinity: a host must transmit on a link of its own
// shard.
func (l *Link) Engine() *sim.Engine { return l.e }

// Name returns the link's wiring name. Names are fixed by the topology,
// not the shard layout, which is what lets fault plans key their per-link
// random streams on them and stay byte-identical at every shard count.
func (l *Link) Name() string { return l.name }

// crossExchange is a cross-shard link's sim.Exchange. Drain runs on the
// destination shard's worker between windows, while the transmitter is
// still. It stages the transmit half's buffer into the receive half's pend
// ring with one Room call a chunk, so a train lies in one chunk as on a
// local link; the cells join runs there and the usual armed event
// delivers them.
type crossExchange struct{ l *Link }

func (x crossExchange) Drain() {
	peer := x.l.peer
	for out := peer.rx.out; len(out) > 0; {
		room := peer.pend.Room(len(out))
		for i := range room {
			room[i] = out[i].c
			peer.join(out[i].arrive, out[i].lead)
		}
		out = out[len(room):]
	}
	peer.rx.out = peer.rx.out[:0]
	if peer.runs.Len() > 0 && !peer.armed {
		peer.armed = true
		peer.armArrival(peer.rx.idle)
	}
}

// Params returns the link's timing parameters.
func (l *Link) Params() LinkParams { return l.p }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetInjector installs an impairment injector (nil disables it), the one
// way a link loses, damages, delays or duplicates a cell. It judges every
// cell at its departure time; a dropped cell consumes wire time but never
// reaches the sink, like one discarded by a congested switch or a marginal
// fiber.
func (l *Link) SetInjector(inj Injector) {
	if l.imp == nil {
		l.imp = &impairment{}
	}
	l.imp.inj = inj
}

// Send enqueues c for transmission now and returns the virtual time at
// which its last bit leaves the transmitter: a run of one cell. Delivery to
// the sink is scheduled automatically.
func (l *Link) Send(c atm.Cell) time.Duration {
	l.Room(1)[0] = c
	l.Commit(1, l.e.Now(), 0)
	return l.nextFree
}

// SendRun enqueues cells[i] as if it were handed to the transmitter at
// start + i*spacing: on a per-cell link each departs from where it lies,
// on any other the cells are copied into Room and booked with Commit.
//
//unetlint:hotpath per-run transmit; runs for every run of cells a NIC or switch puts on a link
func (l *Link) SendRun(cells []atm.Cell, start, spacing time.Duration) {
	if l.perCell() {
		l.departEach(cells, start, spacing)
		return
	}
	for i := 0; i < len(cells); {
		i += copy(l.Room(len(cells)-i), cells[i:])
	}
	l.Commit(len(cells), start, spacing)
}

// perCell reports whether cells go onto the wire one at a time, through an
// injector or a cross link's outbound buffer.
func (l *Link) perCell() bool { return l.peer != nil || l.imp != nil && l.imp.inj != nil }

// Room lends a sender slots for its next cells, at least one and at most n:
// the in-flight ring's back chunk on a local link with no injector, else
// link scratch. The sender fills them, asks again until it holds n, and
// books them with Commit(n, …) before anything else sends on the link.
//
//unetlint:allow hotpathalloc the scratch grows to the longest run a per-cell link is handed, once
func (l *Link) Room(n int) []atm.Cell {
	if !l.perCell() {
		return l.pend.Room(n)
	}
	if cap(l.imp.lent) < n {
		l.imp.lent = make([]atm.Cell, n)
	}
	return l.imp.lent[:n]
}

// Commit books the n cells Room last lent as if cell i were handed to the
// transmitter at start + i*spacing (never before now), each starting when
// the transmitter is free of the cell ahead: the departures per-cell sends
// would have, in one call. A local link with no injector stamps them once
// per back-to-back run; otherwise they are judged, or cross, one by one.
//
//unetlint:hotpath per-run transmit; runs for every run of cells a NIC or switch puts on a link
func (l *Link) Commit(n int, start, spacing time.Duration) {
	if l.perCell() {
		l.departEach(l.imp.lent[:n], start, spacing)
		return
	}
	if n == 0 {
		return
	}
	free := l.idleFrom()
	l.stats.CellsSent += uint64(n)
	for i := 0; i < n; i++ {
		free = l.depart(free, start+time.Duration(i)*spacing)
		r := l.join(free+l.p.Propagation, 0)
		if spacing <= l.p.CellTime {
			// Each later cell is handed over before the transmitter is
			// free: the rest follow back to back, in this run.
			rest := time.Duration(n - 1 - i)
			r.n += int32(rest)
			free += rest * l.p.CellTime
			break
		}
	}
	l.nextFree = free
	if !l.armed { // the ring held no run before these
		l.armed = true
		l.e.AtArg(l.runs.Front().first, linkFire, l)
	}
}

// departEach books cells one by one on a per-cell link, cell i handed to
// the transmitter at start + i*spacing: each departs when the transmitter
// is free of the one ahead and is judged, or crosses, at its departure.
func (l *Link) departEach(cells []atm.Cell, start, spacing time.Duration) {
	free := l.idleFrom()
	l.stats.CellsSent += uint64(len(cells))
	for i := range cells {
		free = l.depart(free, start+time.Duration(i)*spacing)
		l.nextFree = free
		l.judge(&cells[i], free)
	}
}

// idleFrom returns when the transmitter is free to start a cell: the end
// of its committed serialization, or now if it is idle.
func (l *Link) idleFrom() time.Duration { return max(l.nextFree, l.e.Now()) }

// depart returns when the last bit of a cell handed over at `at` leaves a
// transmitter that is free from `free`: the link's one departure rule.
func (l *Link) depart(free, at time.Duration) time.Duration {
	return max(free, at) + l.p.CellTime
}

// judge hands one cell leaving at depart to the injector, if any, and the
// cells it lets through to enqueue.
func (l *Link) judge(c *atm.Cell, depart time.Duration) {
	m := l.imp
	if m == nil || m.inj == nil {
		l.enqueue(c, depart+l.p.Propagation)
		return
	}
	m.scratch = *c
	v := m.inj.Judge(&m.scratch, depart)
	if v.Drop {
		l.stats.CellsLost++
		return
	}
	arrive := max(depart+l.p.Propagation+v.Delay, m.lastArrive)
	m.lastArrive = arrive
	l.enqueue(&m.scratch, arrive)
	if v.Duplicate {
		l.stats.CellsDuplicated++
		m.lastArrive = arrive + l.p.CellTime
		l.enqueue(&m.scratch, m.lastArrive)
	}
}

// enqueue hands an in-flight cell to the delivery machinery: the outbound
// buffer on a tx half, the local pend ring (arming the delivery event)
// otherwise.
func (l *Link) enqueue(c *atm.Cell, arrive time.Duration) {
	if l.peer != nil {
		rx := l.peer.rx
		rx.out = append(rx.out, inflight{c: *c, arrive: arrive, lead: uint32(min(arrive-l.e.Now(), maxLead))})
		return
	}
	l.pend.Push(*c)
	l.join(arrive, 0)
	if !l.armed {
		l.armed = true
		l.e.AtArg(arrive, linkFire, l)
	}
}

// join books a cell already in pend that arrives at arrive: it joins the
// newest run if it arrives exactly one CellTime after that run's last cell,
// and opens a run otherwise. It returns the run the cell is in.
func (l *Link) join(arrive time.Duration, lead uint32) *wireRun {
	if l.runs.Len() > 0 {
		if r := l.runs.Back(); r.first+time.Duration(r.n)*l.p.CellTime == arrive {
			r.n++
			return r
		}
	}
	l.runs.Push(wireRun{first: arrive, n: 1, lead: lead})
	return l.runs.Back()
}

// linkFire is the static delivery callback shared by all links, so arming
// the delivery event allocates nothing.
func linkFire(a any) { a.(*Link).fire() }

// fire delivers the oldest run in flight as one train, at its first cell's
// arrival. A run that lies in one chunk of the in-flight ring is handed
// over in place and dropped after DeliverTrain returns; one that straddles
// chunks goes through DeliverRun: a switch port or a NIC reads it off the
// ring in place, any other sink takes it a chunk at a time. The run leaves
// the runs ring and re-arming happens before delivery, so a sink that
// feeds the link again observes consistent state and starts a new run.
//
//unetlint:hotpath per-train delivery; runs for every train coming off a link
func (l *Link) fire() {
	r := l.runs.Pop()
	n := int(r.n)
	l.rearm()
	if cells := l.pend.Span(n); len(cells) == n {
		l.sink.DeliverTrain(cells, r.first, l.p.CellTime)
	} else {
		DeliverRun(l.sink, &l.pend, n, r.first, l.p.CellTime)
	}
	l.pend.Drop(n)
}

// rearm schedules the next delivery, if runs remain in flight.
func (l *Link) rearm() {
	switch {
	case l.runs.Len() == 0:
		l.armed = false
		if l.rx != nil {
			l.rx.idle = l.e.Now()
		}
	case l.rx != nil:
		l.armArrival(l.e.Now())
	default:
		l.e.AtArg(l.runs.Front().first, linkFire, l)
	}
}

// armArrival arms a receive half's next delivery. A local link arms at its
// engine's current instant; a receive half runs on another clock than its
// transmitter, so it names the instant a local link would have armed at —
// the previous delivery's (prev), or the head run's send time if it went
// onto the wire after that — and the engine files the event as if it had
// been scheduled then.
func (l *Link) armArrival(prev time.Duration) {
	head := l.runs.Front()
	l.e.ArriveArg(head.first, max(prev, head.sent()), l.rx.index, linkFire, l)
}

// NextFree returns the virtual time at which the transmitter finishes its
// committed work — the earliest start a further cell could get. A sender
// paces itself on it: a NIC computes its output-FIFO stalls in closed form,
// and a switch decides tail drops at a finite output queue.
func (l *Link) NextFree() time.Duration { return l.nextFree }
