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
// implement it. Delivery happens in engine-callback context.
type CellSink interface {
	DeliverCell(c atm.Cell)
}

// TrainSink is implemented by sinks that can absorb a whole back-to-back
// cell train in one call. A link that finds consecutive in-flight cells
// spaced exactly one CellTime apart delivers them together: DeliverTrain is
// invoked at the arrival time of cells[0], and cells[i] is defined to arrive
// at first + i*spacing. The sink must account for those arrival times
// arithmetically (they are in the future for i > 0). The cells slice is
// owned by the link and valid only for the duration of the call.
//
// The contract makes train delivery virtual-time-neutral: a sink that
// processes cell i as if it had been handed over at first + i*spacing
// reproduces the per-cell delivery schedule exactly, while the engine pays
// for one event per train rather than one per cell.
type TrainSink interface {
	CellSink
	DeliverTrain(cells []atm.Cell, first, spacing time.Duration)
}

// SinkFunc adapts a function to the CellSink interface.
type SinkFunc func(c atm.Cell)

// DeliverCell calls f(c).
//
//unetlint:allow costcharge adapter only; any processing cost belongs to the wrapped function
//unetlint:allow hotpathalloc adapter only; what the wrapped function allocates is its own budget, and no fabric is compiled with one
func (f SinkFunc) DeliverCell(c atm.Cell) { f(c) }

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

// inflight is one cell on the wire, tagged with its arrival time at the far
// end (last bit out of the transmitter plus propagation). On a cross-shard
// link it also says how long before that the transmitter enqueued it, which
// orders its delivery among the receiving shard's same-instant events. The
// lead sits in the cell's alignment padding: the in-flight rings are most
// of a large fabric's link memory, and the struct stays at 64 bytes.
type inflight struct {
	c      atm.Cell
	lead   uint32 // arrive minus the transmitter's clock at enqueue, ns; see sent
	arrive time.Duration
}

// sent returns the transmitter's clock when the cell was enqueued. A cell
// more than maxLead in flight reads as sent maxLead before its arrival.
func (f *inflight) sent() time.Duration { return f.arrive - time.Duration(f.lead) }

const maxLead = time.Duration(math.MaxUint32)

// Link is a unidirectional serializing link: cells handed to Send depart in
// order at line rate and are delivered to the sink one propagation delay
// after their last bit leaves. The transmit queue is unbounded — the sender
// (a NIC model) is responsible for pacing itself via Backlog, mirroring a
// NIC output FIFO of finite depth.
//
// In-flight cells live in a ring ordered by arrival time (serialization
// makes arrivals monotonic), drained by a single armed delivery event
// instead of one event per cell. When the sink implements TrainSink, a
// back-to-back run — consecutive arrivals spaced exactly CellTime — is
// handed over in one call.
type Link struct {
	e        *sim.Engine
	name     string
	p        LinkParams
	sink     CellSink
	tsink    TrainSink // sink, if it also implements TrainSink
	nextFree time.Duration
	inj      Injector
	stats    LinkStats

	// lastArrive clamps impaired arrivals: the in-flight ring is ordered by
	// arrival time, and a fiber never reorders, so a jittered cell delays
	// everything behind it rather than being overtaken.
	lastArrive time.Duration

	// scratch is the private cell copy handed to the injector. It lives on
	// the (already heap-allocated) Link so the Judge interface call never
	// forces SendAt's cell parameter to escape — the steady-state data path
	// stays allocation-free whether or not an injector is installed.
	scratch atm.Cell

	pend  []inflight // power-of-two ring of cells on the wire
	head  int
	n     int
	armed bool
	train *trainBuf // the delivering engine's DeliverTrain scratch

	// Cross-shard mode (see NewCrossLink): the transmit side keeps the
	// serialization arithmetic (nextFree, stats, loss) but pushes in-flight
	// cells into a lock-free SPSC ring instead of the local pend ring; peer
	// is the receive half in the destination shard, which owns the pend
	// ring, the delivery machinery and the train grouping, and alone has
	// rx set. A local link has neither.
	peer *Link
	ring *sim.SPSC[inflight]
	rx   *crossRx
}

// crossRx is what a receive half needs to place its delivery events in the
// destination shard's event order. It hangs off the Link by pointer so the
// thousands of local links of a large fabric do not pay for it.
type crossRx struct {
	// index is the exchange's registration index, the final tie-break among
	// cross arrivals.
	index int
	// idle is the instant the last delivery left the in-flight ring empty.
	idle time.Duration
}

// trainBuf is the slice fire gathers a train into. Every link delivering on
// one engine shares that engine's (sim.Local): fire runs only as an engine
// event and a sink keeps no cell past DeliverTrain, so one is never in use
// twice, and a fabric's scratch is one slice per shard, as long as its
// busiest link's backlog, instead of one per link.
type trainBuf struct{ cells []atm.Cell }

// NewLink creates a link delivering into sink.
func NewLink(e *sim.Engine, name string, p LinkParams, sink CellSink) *Link {
	if p.CellTime <= 0 {
		p.CellTime = DefaultCellTime
	}
	l := &Link{e: e, name: name, p: p, sink: sink, train: sim.Local[trainBuf](e)}
	l.tsink, _ = sink.(TrainSink)
	return l
}

// NewCrossLink creates a link whose transmitter lives in shard engine src
// and whose receiver (sink) lives in shard engine dst. The returned Link is
// the transmit half: senders use it exactly like a local link — Send/SendAt
// serialize against nextFree, Backlog/WaitReady pace the output FIFO, loss
// applies at the transmitter — but cells in flight cross the shard boundary
// through an SPSC ring the destination drains at its round tops, and the
// receive half replays them through the standard in-flight ring so delivery
// times, train grouping and the place of each delivery among the
// destination's same-instant events are the ones a local link would have
// produced.
//
// The link's latency (CellTime + Propagation) is registered as the
// src→dst pair lookahead: a cell sent at time t arrives no earlier than
// t + CellTime + Propagation, which is exactly the bound the conservative
// window protocol needs — and registering it per pair lets shards joined
// only by slow paths keep windows wider than the global minimum.
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
	peer := &Link{e: dst, name: name, p: p, sink: sink, rx: &crossRx{}, train: sim.Local[trainBuf](dst)}
	peer.tsink, _ = sink.(TrainSink)
	l := &Link{e: src, name: name, p: p, peer: peer, ring: sim.NewSPSC[inflight](256)}
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
// destination shard's worker while the transmitter keeps running, so it
// takes only what the ring has published. Entries are staged into the
// receive half's pend ring and delivered by its usual armed event.
type crossExchange struct{ l *Link }

func (x crossExchange) Drain() {
	peer := x.l.peer
	for {
		f, ok := x.l.ring.Pop()
		if !ok {
			break
		}
		peer.push(f)
	}
	if peer.n > 0 && !peer.armed {
		peer.armed = true
		peer.armArrival(peer.rx.idle)
	}
}

// Pending reports outstanding ring traffic (any shard).
func (x crossExchange) Pending() bool { return x.l.ring.Pending() }

// Params returns the link's timing parameters.
func (l *Link) Params() LinkParams { return l.p }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetInjector installs an impairment injector (nil disables it), the one
// way a link loses, damages, delays or duplicates a cell. It judges every
// cell at its departure time; a dropped cell consumes wire time but never
// reaches the sink, like one discarded by a congested switch or a marginal
// fiber.
func (l *Link) SetInjector(inj Injector) { l.inj = inj }

// Send enqueues c for transmission and returns the virtual time at which
// its last bit leaves the transmitter. Delivery to the sink is scheduled
// automatically.
func (l *Link) Send(c atm.Cell) time.Duration {
	return l.SendAt(c, l.e.Now())
}

// SendAt enqueues c as if Send had been called at virtual time start (which
// must not precede the current time). It lets a sender that has computed a
// whole departure schedule arithmetically — a NIC draining its transmit
// FIFO, the switch forwarding a train — enqueue the cells in one callback
// instead of sleeping between them: serialization against nextFree yields
// exactly the departure times the per-cell calls would have produced.
//
//unetlint:hotpath per-cell transmit; runs for every cell a NIC or switch puts on a link
func (l *Link) SendAt(c atm.Cell, start time.Duration) time.Duration {
	if now := l.e.Now(); start < now {
		start = now
	}
	if l.nextFree > start {
		start = l.nextFree
	}
	depart := start + l.p.CellTime
	l.nextFree = depart
	l.stats.CellsSent++
	if l.inj != nil {
		l.scratch = c
		v := l.inj.Judge(&l.scratch, depart)
		if v.Drop {
			l.stats.CellsLost++
			return depart
		}
		arrive := depart + l.p.Propagation + v.Delay
		if arrive < l.lastArrive {
			arrive = l.lastArrive
		}
		l.lastArrive = arrive
		l.enqueue(l.scratch, arrive)
		if v.Duplicate {
			l.stats.CellsDuplicated++
			l.lastArrive = arrive + l.p.CellTime
			l.enqueue(l.scratch, l.lastArrive)
		}
		return depart
	}
	l.enqueue(c, depart+l.p.Propagation)
	return depart
}

// enqueue hands an in-flight cell to the delivery machinery: the
// cross-shard SPSC ring on a tx half, the local pend ring (arming the
// delivery event) otherwise.
func (l *Link) enqueue(c atm.Cell, arrive time.Duration) {
	if l.peer != nil {
		l.ring.Push(inflight{c: c, arrive: arrive, lead: uint32(min(arrive-l.e.Now(), maxLead))})
		return
	}
	l.push(inflight{c: c, arrive: arrive})
	if !l.armed {
		l.armed = true
		l.e.AtArg(l.pend[l.head].arrive, linkFire, l)
	}
}

// push appends to the in-flight ring, growing it when full.
func (l *Link) push(f inflight) {
	if l.n == len(l.pend) {
		//unetlint:allow hotpathalloc the ring doubles until it holds the link's bandwidth-delay product and then never grows again
		grown := make([]inflight, max(4, 2*len(l.pend)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.pend[(l.head+i)&(len(l.pend)-1)]
		}
		l.pend = grown
		l.head = 0
	}
	l.pend[(l.head+l.n)&(len(l.pend)-1)] = f
	l.n++
}

// pop removes the oldest in-flight cell.
func (l *Link) pop() inflight {
	f := l.pend[l.head]
	l.pend[l.head] = inflight{}
	l.head = (l.head + 1) & (len(l.pend) - 1)
	l.n--
	return f
}

// linkFire is the static delivery callback shared by all links, so arming
// the delivery event allocates nothing.
func linkFire(a any) { a.(*Link).fire() }

// fire delivers the front of the in-flight ring. It runs at the arrival
// time of the oldest cell. Consecutive cells spaced exactly one CellTime
// apart form a train; if the sink understands trains the whole run is
// delivered here, otherwise only the head cell is (and the event re-arms
// for the next). Re-arming happens before delivery so a sink that feeds the
// link again observes consistent state.
//
//unetlint:hotpath per-train delivery; runs for every cell or train coming off a link
func (l *Link) fire() {
	now := l.e.Now()
	if l.tsink == nil {
		f := l.pop()
		l.rearm()
		l.sink.DeliverCell(f.c)
		return
	}
	// A train is at most the cells in flight, so room for those is room for
	// it, decided once instead of cell by cell.
	if len(l.train.cells) < l.n {
		//unetlint:allow hotpathalloc the engine's shared scratch doubles until it holds as many cells as any of its links has had in flight at a delivery, and then never grows again
		l.train.cells = make([]atm.Cell, max(l.n, 2*len(l.train.cells)))
	}
	train, k := l.train.cells, 0
	for next := now; ; {
		train[k] = l.pop().c
		k++
		next += l.p.CellTime
		if l.n == 0 || l.pend[l.head].arrive != next {
			break
		}
	}
	l.rearm()
	l.tsink.DeliverTrain(train[:k], now, l.p.CellTime)
}

// rearm schedules the next delivery, if cells remain in flight.
func (l *Link) rearm() {
	switch {
	case l.n == 0:
		l.armed = false
		if l.rx != nil {
			l.rx.idle = l.e.Now()
		}
	case l.rx != nil:
		l.armArrival(l.e.Now())
	default:
		l.e.AtArg(l.pend[l.head].arrive, linkFire, l)
	}
}

// armArrival arms a receive half's next delivery. A local link arms at its
// engine's current instant; a receive half runs on another clock than its
// transmitter, so it names the instant a local link would have armed at —
// the previous delivery's (prev), or the head cell's send time if it went
// onto the wire after that — and the engine files the event as if it had
// been scheduled then.
func (l *Link) armArrival(prev time.Duration) {
	head := &l.pend[l.head]
	l.e.ArriveArg(head.arrive, max(prev, head.sent()), l.rx.index, linkFire, l)
}

// NextFree returns the virtual time at which the transmitter finishes its
// committed work — the earliest start a further SendAt could get. Senders
// that pace themselves arithmetically (instead of sleeping via WaitReady)
// use it to compute output-FIFO stalls in closed form.
func (l *Link) NextFree() time.Duration { return l.nextFree }

// Backlog returns how long the transmitter is already committed beyond the
// current instant — the serialization debt of queued cells. NIC models use
// it to stall when their shallow output FIFO would be full.
func (l *Link) Backlog() time.Duration {
	if l.nextFree <= l.e.Now() {
		return 0
	}
	return l.nextFree - l.e.Now()
}

// WaitReady blocks the process until the transmit backlog is at most
// maxCells cells' worth of time, modeling a bounded output FIFO. Each link
// has a single transmitting process, so the backlog only drains while that
// process is blocked here: the exact wake time is computed once and slept
// once, rather than polled.
func (l *Link) WaitReady(p *sim.Proc, maxCells int) {
	limit := time.Duration(maxCells) * l.p.CellTime
	if b := l.Backlog(); b > limit {
		p.Sleep(b - limit)
	}
}
