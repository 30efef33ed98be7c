// Package sim provides a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine maintains a virtual clock and an ordered event queue. Simulated
// activities run either as plain scheduled callbacks (Engine.After) or as
// processes (Proc): iter.Pull coroutines that the engine resumes from its
// event loop and that hand control straight back when they block, so
// exactly one of them — or the engine itself — executes at any instant and
// a hand-off never crosses the Go scheduler. Processes advance the virtual
// clock by sleeping (charging processing costs) and synchronize through
// conditions (Cond) and bounded FIFOs. A sleep whose wake-up would be the
// very next event is taken in place, without leaving the process; see
// Engine.nextToFire for why that changes neither event order nor Steps. Code
// that blocks — applications, protocol stacks — is a process; a model that
// only ever waits for the clock or for its next input, like a NIC's
// firmware loop, is a state machine stepped by callbacks, and sleeps
// through the same slots with Engine.SleepTo.
//
// Determinism: events fire in (at, sched, seq) order — firing time, then
// the virtual time at which the event was scheduled, then a sequence
// number. For events an engine schedules itself, seq rises with the clock,
// so this is plain scheduling order among same-instant events. The sched
// key exists for the one event an engine does not schedule itself, the
// arrival of a message from another shard (Engine.ArriveArg): it carries
// the sender's clock, so it fires where the same delivery armed by a local
// sender would have, whenever the destination happened to learn of it. The
// engine draws no randomness (models draw from seeded faults.NewRand
// streams), so a simulation produces bit-identical results across runs.
//
// The event queue is built for throughput on the simulator's hot path
// (cell-level network models schedule millions of events per simulated
// second of traffic): events live in a free-list-backed arena and are
// recycled after firing, the near-horizon queue is a 4-ary heap of
// instants — the events that fire together share one slot, chained in
// order behind its first, so an event that joins a queued instant is
// appended without a sift (the simulated cluster's hosts act in lockstep)
// — and every event is one call fn(arg) of a static callback on a
// pointer-shaped argument, so Proc.Sleep, wake-ups and timeouts allocate
// nothing in steady state. A canceled timer still heap-resident stays there until its
// instant pops; the heap holds only the near horizon, so such entries are
// few.
//
// Above the heap sits the far-horizon store, a hierarchical timer wheel
// (wheel.go) that absorbs events beyond the current drain frontier with
// O(1) insert/cancel, keeping heap depth — and hence per-event cost —
// bounded by the near-term traffic, not by the total pending population.
// Fire order is decided exclusively by the heap; an engine built without
// the wheel (newHeapOnly, for this package's differential tests) runs the
// same simulation bit for bit.
//
// One simulation can also be partitioned across several engines — shards —
// that execute on parallel goroutines under conservative, neighbor-
// synchronized time windows while reproducing the serial engine's results;
// see shard.go for the group and neighbor.go for the protocol.
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Engine is a discrete-event simulator instance. Create one with New; it is
// not safe for concurrent use from multiple OS threads — all interaction
// must happen from the goroutine that calls Run or from within simulated
// processes and callbacks, which the engine serializes.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	// free is the event arena's free list. Fired and canceled events are
	// returned here and reused, so steady-state scheduling allocates nothing.
	free *event
	// wheel is the far-horizon event store (nil in a newHeapOnly engine).
	wheel *wheel
	// stop is the exclusive bound of the runWindow in progress, which
	// in-place sleeps must stay inside; Shutdown zeroes it.
	stop   time.Duration
	procs  map[*Proc]struct{}
	nsteps uint64
	// group and shardID place the engine in a sharded simulation (nil /
	// zero for a plain serial engine). See shard.go.
	group *Group
	// shardID is 32 bits, as are the heap's counters, so that an engine
	// stays in the 128-byte size class (TestEngineSize).
	shardID int32
	// locals holds model packages' per-engine state, one value per type
	// (see Local).
	locals []any
}

// Local returns e's own value of type T, zero when first asked for. It is
// where a model package keeps state that everything running on one engine
// may share and nothing on another engine may touch — scratch memory
// reused from event to event — since an engine runs one event at a time
// while the shards of a group run in parallel. Look it up when the model is
// built, not per event.
func Local[T any](e *Engine) *T {
	for _, v := range e.locals {
		if p, ok := v.(*T); ok {
			return p
		}
	}
	p := new(T)
	e.locals = append(e.locals, p)
	return p
}

// firstSeq is where an engine's own sequence numbers start. The range below
// it belongs to cross-shard arrivals, whose seq is their exchange's
// registration index (Group.AddExchangeFrom).
const firstSeq = 1 << 32

// New returns an engine with its virtual clock at zero. The engine draws no
// randomness (faults.NewRand is the one root of it), and the seed is unused:
// the frozen bench still passes one (ROADMAP 2(l)).
func New(seed int64) *Engine {
	e := newHeapOnly(seed)
	e.wheel = newWheel()
	return e
}

// newHeapOnly returns an engine that keeps every pending event in the
// heap. It is the wheel's differential-testing twin: a run on it must be
// bit-identical to the same run on New's engine, and it takes New's
// arguments so the tests hold either.
func newHeapOnly(int64) *Engine {
	return &Engine{
		seq:   firstSeq,
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps reports how many events have fired since the engine was created.
// Useful as a progress/livelock diagnostic in tests.
func (e *Engine) Steps() uint64 { return e.nsteps }

// PendingEvents reports how many entries currently sit in the event queue,
// heap and wheel combined: the live ones, plus canceled ones in the heap,
// which stay until their instant pops. Exposed for queue-growth diagnostics
// and tests.
func (e *Engine) PendingEvents() int {
	n := int(e.events.n)
	if e.wheel != nil {
		n += e.wheel.count
	}
	return n
}

// peek returns the earliest pending event without removing it, or nil. It
// establishes the exact global minimum at the heap top, draining wheel
// slots only as far as needed: the shard window protocol publishes this
// value as the shard's next-event time, and a lower bound would stall the
// conservative horizon computation.
func (e *Engine) peek() *event {
	if w := e.wheel; w != nil && w.count > 0 {
		if head := e.events.min(); head == nil || head.at > w.nextLB {
			w.drain(e)
		}
	}
	return e.events.min()
}

// peekLive is peek for a shard publishing its next-event time: it first
// discards, without a step, the canceled entries at the top, whose times
// are lower bounds that would hold every neighbor's horizon back (a NIC
// re-arming its wake later leaves one per move).
func (e *Engine) peekLive() *event {
	for {
		ev := e.peek()
		if ev == nil || !ev.canceled {
			return ev
		}
		e.events.pop()
		e.recycle(ev)
	}
}

// event is a single queue entry, which calls fn(arg) at virtual time at.
// Entries with equal times fire in (sched, seq) order: by the virtual time
// they were scheduled at, then by sequence number. Events are pooled: gen
// increments on every recycle so stale Timer handles cannot cancel an
// unrelated reincarnation. The small fields share one word so the struct
// stays in the 96-byte size class (TestEventSize).
type event struct {
	at    time.Duration
	sched time.Duration
	seq   uint64
	e     *Engine
	fn    func(any)
	arg   any
	gen   uint32
	// canceled events stay in the heap but do not fire. (Wheel-resident
	// events are instead unlinked and recycled at Cancel time.)
	canceled bool
	// wslot is the wheel slot this event occupies (level*wheelSlots+slot),
	// or -1 while heap-resident, free, or fired.
	wslot int32
	// next chains the free list, the wheel's slot lists and the heap's
	// instants. prev back-links a wheel slot list so wheel cancellation is
	// O(1); the first event of a slot list or an instant keeps its last
	// there instead.
	next *event
	prev *event
}

// alloc takes an event from the arena free list, or grows the arena.
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		//unetlint:allow hotpathalloc arena growth: the free list reaches the run's peak of pending events and every later event is recycled
		return &event{wslot: -1}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle clears an event and returns it to the arena.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.arg = nil
	ev.canceled = false
	ev.wslot = -1
	ev.prev = nil
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// Timer is a handle to a scheduled callback. Cancel prevents a pending
// callback from firing; canceling an already-fired timer is a no-op. The
// zero Timer is valid and Cancel on it reports false.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel stops the timer. It reports whether the callback was still pending.
// A wheel-resident entry is unlinked and recycled immediately; a
// heap-resident one stays queued until its instant pops and is dropped
// then. The heap holds only ticks at or before the wheel's drain frontier,
// so such entries are few and near.
func (t Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.canceled {
		return false
	}
	if ev.wslot >= 0 {
		ev.e.wheel.unlink(ev)
		ev.e.recycle(ev)
		return true
	}
	ev.canceled = true
	return true
}

// schedule enqueues a pooled event at absolute time at (clamped to now),
// scheduled now under the engine's next sequence number.
func (e *Engine) schedule(at time.Duration) *event {
	if at < e.now {
		at = e.now
	}
	ev := e.enqueue(at, e.now, e.seq)
	e.seq++
	return ev
}

// enqueue is the one place an event enters the queue. Events beyond the
// wheel's drain frontier go to the far-horizon wheel; everything else —
// including all of a heap-only engine's traffic — goes to the near-horizon
// heap.
func (e *Engine) enqueue(at, sched time.Duration, seq uint64) *event {
	ev := e.alloc()
	ev.at = at
	ev.sched = sched
	ev.seq = seq
	ev.e = e
	if w := e.wheel; w != nil && tick(at) > w.cur {
		w.insert(ev)
	} else {
		e.events.push(ev)
	}
	return ev
}

// At schedules fn to run at absolute virtual time at. Times in the past are
// clamped to now. A func value is pointer-shaped, so passing fn as callFunc's
// arg allocates nothing.
func (e *Engine) At(at time.Duration, fn func()) Timer {
	return e.AtArg(at, callFunc, fn)
}

// callFunc is At's callback: it calls the func() it was given as arg.
func callFunc(fn any) { fn.(func())() }

// After schedules fn to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtArg schedules fn(arg) to run at absolute virtual time at. With a static
// (non-capturing) fn and a pointer-typed arg this allocates nothing, which
// makes it the scheduling primitive of choice for per-message hot paths.
func (e *Engine) AtArg(at time.Duration, fn func(any), arg any) Timer {
	ev := e.schedule(at)
	ev.fn = fn
	ev.arg = arg
	return Timer{ev: ev, gen: ev.gen}
}

// nextToFire reports whether a wake-up at absolute time at would be the
// very next event to fire: strictly before the queue head and strictly
// inside the current runWindow. Queueing such a wake-up would make it the
// queue minimum; the engine would pop it next with nothing firing in
// between, advance the clock to it, count a step, and hand control straight
// back to whoever queued it. wakeInPlace does exactly that without the
// queue: same sequence number consumed, same clock, same Steps, every other
// event's (at, seq) untouched, a heap push/pop (and, for a process, two
// coroutine switches) saved. A head at or before the wake-up (an equal time
// has the lower sequence number; a canceled head is not worth telling
// apart) or a window stop at or before it (cross-shard arrivals may still
// land there) reports false, and the caller queues the wake-up. This is the
// one place the rule lives; Proc.Sleep and SleepTo are its two callers. It
// is kept apart from wakeInPlace to stay inside the compiler's inlining
// budget (by one point; together they are not inlined and
// BenchmarkEngine_SleepResume reads 6.4 ns for 4.5).
func (e *Engine) nextToFire(at time.Duration) bool {
	if at < e.stop {
		head := e.peek()
		return head == nil || at < head.at
	}
	return false
}

// wakeInPlace is what firing a wake-up queued for at would have done.
func (e *Engine) wakeInPlace(at time.Duration) {
	e.seq++
	e.nsteps++
	e.now = at
}

// SleepTo is Proc.Sleep for an event handler, which has no coroutine to
// park: it moves the clock to absolute time at (a time in the past is
// clamped to now) on behalf of the handler running now. It reports true
// when the wake-up was taken in place and the handler may carry on.
// Otherwise it has scheduled fn(arg) at at — in the slot a sleeping
// process's resume event would hold — and reports false: the handler must
// return, and picks up where it left off when fn fires. Either way one
// sequence number is consumed and one step counted, so a state machine
// stepping on SleepTo and a process sleeping through the same instants
// leave every other event's order alone.
func (e *Engine) SleepTo(at time.Duration, fn func(any), arg any) bool {
	if at < e.now {
		at = e.now
	}
	if e.nextToFire(at) {
		e.wakeInPlace(at)
		return true
	}
	e.AtArg(at, fn, arg)
	return false
}

// ArriveArg schedules fn(arg) at absolute time at as the delivery of a
// message another shard sent into this one through exchange index (the
// value Group.AddExchangeFrom returned). sched is the sender's virtual time
// at the moment a sender on this engine would have scheduled the delivery;
// the event takes exactly that place among its instant's events — ahead of
// everything this engine scheduled at sched itself, after everything
// scheduled earlier, in registration order among arrivals that tie on both
// — so where it fires does not depend on when the destination drained it.
// There is no fourth key: one exchange must not have two arrivals pending
// that tie on both at and sched (a link never does; it arms one delivery
// at a time). An arrival in the engine's past means the exchange broke its
// lookahead.
func (e *Engine) ArriveArg(at, sched time.Duration, index int, fn func(any), arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: cross-shard arrival at %v is in shard %d's past (now %v): exchange %d sent inside its lookahead", at, e.shardID, e.now, index))
	}
	ev := e.enqueue(at, sched, uint64(index))
	ev.fn = fn
	ev.arg = arg
}

// Run processes events until the queue is empty (the simulation is
// quiescent: every process is blocked or finished). It returns the final
// virtual time. Run may be called again after scheduling more work.
func (e *Engine) Run() time.Duration {
	return e.RunUntil(-1)
}

// RunUntil processes events with firing times ≤ limit (limit < 0 means no
// limit) and returns the virtual time reached. Events beyond the limit stay
// queued. On the root engine of a shard group this drives the whole group;
// calling it on a non-root shard is an error.
func (e *Engine) RunUntil(limit time.Duration) time.Duration {
	if e.group != nil {
		if e.group.root != e {
			panic("sim: Run/RunUntil on a shard engine; drive the group's root engine")
		}
		return e.group.run(limit)
	}
	e.runWindow(stopFor(limit))
	e.alignNow(limit)
	return e.now
}

// runWindow processes events with firing times strictly before stop. It is
// the serial engine's whole main loop (RunUntil passes limit+1) and one
// conservative window of a sharded run.
func (e *Engine) runWindow(stop time.Duration) {
	e.stop = stop
	for {
		next := e.peek()
		if next == nil || next.at >= stop {
			return
		}
		e.events.pop()
		if next.canceled {
			e.recycle(next)
			continue
		}
		if next.at > e.now {
			e.now = next.at
		}
		e.nsteps++
		// Copy the call out and recycle before making it: the callback may
		// schedule new events, and reusing the just-fired entry keeps the
		// arena hot. A Timer held for this event sees the generation bump
		// and correctly reports not-pending.
		fn, arg := next.fn, next.arg
		e.recycle(next)
		fn(arg)
	}
}

// Shutdown terminates every live process (blocked or sleeping) by stopping
// its coroutine — the pending park panics with procKilled, so the process's
// deferred functions run — then discards pending events. Call when a
// simulation is finished to avoid leaking coroutines; the engine must not
// be used after. On the root engine of a shard group it shuts every shard
// down.
func (e *Engine) Shutdown() {
	if e.group != nil && e.group.root == e {
		e.group.shutdown()
		return
	}
	e.shutdownLocal()
}

func (e *Engine) shutdownLocal() {
	e.stop = 0 // a deferred Sleep during the unwind must park, not run on
	for p := range e.procs {
		if p.stop != nil && !p.done {
			p.stop()
		}
		delete(e.procs, p)
	}
	e.events = eventHeap{}
	e.free = nil
	if e.wheel != nil {
		e.wheel.reset()
	}
}

// transfer resumes p's coroutine and returns when p parks or finishes: a
// direct switch to p and back, on the calling goroutine's thread. A panic in
// p comes out of next here, wrapped by top. This is the single point of
// control transfer between engine and process.
func (e *Engine) transfer(p *Proc) {
	p.next()
	if p.done {
		delete(e.procs, p)
	}
}

// resume is a process's wake-up callback: it resumes the *Proc it was
// given, unless the process has finished.
func resume(a any) {
	if p := a.(*Proc); !p.done {
		p.e.transfer(p)
	}
}

// Spawn creates a process named name running fn and schedules it to start
// at the current virtual time. The start event creates fn's coroutine, so a
// process that never starts costs nothing to shut down; fn executes only
// while the engine has transferred control to it.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, name: name}
	e.procs[p] = struct{}{}
	e.After(0, func() {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			p.top(fn)
		})
		e.transfer(p)
	})
	return p
}

// eventHeap is the near-horizon queue: a 4-ary min-heap of instants. A slot
// holds the first event of one firing time, the others chain behind it
// through next in (sched, seq) order, and the first's prev is the last (it
// itself when alone). The simulated hosts act in lockstep (gossip1k holds
// ~700 events in ~7 instants), so an event usually joins a queued instant:
// an append, no sift. Slots are ordered by their first events, so pop is
// exactly (at, sched, seq) order; an instant push misses gets a second
// slot, which costs a slot, never order.
type eventHeap struct {
	slots []*event
	n     int32 // events in all chains, canceled ones included
	// hint is the slot the last push went to. Its instant is the likeliest
	// next one (a wheel slot hands over a tick's events in a row), and a
	// sift may have moved it, so push checks it before trusting it.
	hint int32
}

// slotScan is how many slots from the top push looks through for an
// instant the hint missed: the root and its four children, which every
// pop's sift has just read, so a miss — every push, where each instant
// holds one event — costs no cache miss. On gossip1k it cuts the slots
// pushes open from 95 k to 43 k; eight would reach 26 k, but slots 5-7
// are cold in a large heap (BenchmarkScheduler_Heap1M 456 -> 522 ns/op).
const slotScan = 5

// before reports whether a fires before b, both at the same instant.
func before(a, b *event) bool {
	return a.sched < b.sched || a.sched == b.sched && a.seq < b.seq
}

// less orders slots by their first events.
func less(a, b *event) bool {
	return a.at < b.at || a.at == b.at && before(a, b)
}

// min returns the first event of the least slot, or nil.
func (h *eventHeap) min() *event {
	if len(h.slots) == 0 {
		return nil
	}
	return h.slots[0]
}

// push queues ev, which comes unlinked (next and prev nil): fresh from the
// arena or handed over by the wheel.
func (h *eventHeap) push(ev *event) {
	h.n++
	s := h.slots
	i := int(h.hint)
	if i >= len(s) || s[i].at != ev.at {
		for i = 0; i < len(s) && i < slotScan && s[i].at != ev.at; i++ {
		}
		if i == len(s) || i == slotScan {
			ev.prev = ev
			h.slots = append(s, ev)
			h.hint = int32(up(h.slots, len(s)))
			return
		}
	}
	h.hint = int32(i)
	head := s[i]
	tail := head.prev
	switch {
	case before(tail, ev):
		tail.next = ev
		head.prev = ev
	case before(ev, head):
		ev.next = head
		ev.prev = tail
		s[i] = ev
		h.hint = int32(up(s, i))
	default:
		p := head
		for before(p.next, ev) {
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	}
}

// pop removes the first event of the least slot. It leaves that event's
// links for the recycle that follows every pop to overwrite.
func (h *eventHeap) pop() {
	h.n--
	s := h.slots
	first := s[0]
	if next := first.next; next != nil {
		next.prev = first.prev
		s[0] = next
		down(s, 0)
		return
	}
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	h.slots = s[:n]
	if n > 1 {
		down(s[:n], 0)
	}
}

// up moves slot i towards the root until its parent fires first, and
// returns where it ends.
func up(s []*event, i int) int {
	for i > 0 {
		parent := (i - 1) / 4
		if !less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	return i
}

// down moves slot i away from the root until it fires before its
// children.
func down(s []*event, i int) {
	n := len(s)
	ev := s[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m, mv := first, s[first]
		for c := first + 1; c < min(first+4, n); c++ {
			if less(s[c], mv) {
				m, mv = c, s[c]
			}
		}
		if !less(mv, ev) {
			break
		}
		s[i] = mv
		i = m
	}
	s[i] = ev
}
