package sim

import "sync/atomic"

// SPSC is a bounded lock-free single-producer/single-consumer ring, the
// transport under cross-shard exchanges in the neighbor-synchronized window
// protocol (see neighbor.go). The producing shard pushes messages as it
// runs its window; the consuming shard pops them at its own round
// boundaries without stopping the producer — no lock, no barrier, no
// syscall on the common path.
//
// Ownership contract: exactly one goroutine may call the producer methods
// (Push, FlushSpill, SpillHead) and exactly one may call the consumer
// methods (Pop). Push and Pop carry reentrance guards that panic on a
// detected second producer or consumer — a cheap tripwire for the single
// writer discipline the lock-freedom rests on. Pending and SpillLen read
// only atomics and are safe from any goroutine (the termination scan uses
// them).
//
// Memory ordering: the producer writes the slot, then advances tail; the
// consumer reads head/tail, then the slot. Go's sync/atomic operations are
// sequentially consistent, so the tail advance is the release edge that
// publishes the slot contents and the consumer's tail load is the matching
// acquire — the ring is race-detector-clean under concurrent push/pop.
//
// When the ring is full, Push spills into a producer-private overflow
// slice instead of blocking: a producer that waited for ring space could
// deadlock against a consumer waiting for the producer's horizon to
// advance. Spilled messages stay invisible to the consumer until the
// producer moves them into the ring with FlushSpill (at its next publish
// point); the window protocol caps the producer's published horizon while
// a spill is outstanding so the consumer never advances past messages it
// cannot yet see.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	head atomic.Uint64 // next slot to pop; advanced only by the consumer
	tail atomic.Uint64 // next slot to push; advanced only by the producer

	// spill is the producer-private overflow, drained FIFO ahead of any new
	// push so order is preserved. spillOff indexes the first unflushed entry;
	// spillLen mirrors the outstanding count for cross-goroutine observers.
	spill    []T
	spillOff int
	spillLen atomic.Int32

	// inPush/inPop detect a second concurrent producer or consumer.
	inPush atomic.Bool
	inPop  atomic.Bool
}

// NewSPSC returns a ring with capacity rounded up to a power of two (at
// least 8).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 8
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity (spill excluded).
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Push appends v, reporting whether it reached the ring: false means the
// ring was full and v went to the producer-private spill (after an attempt
// to flush any earlier spill first, so FIFO order holds). Producer only.
func (q *SPSC[T]) Push(v T) bool {
	if !q.inPush.CompareAndSwap(false, true) {
		panic("sim: concurrent SPSC.Push; the ring has exactly one producer")
	}
	ok := (q.spillLen.Load() == 0 || q.flushLocked()) && q.tryPush(v)
	if !ok {
		q.spill = append(q.spill, v)
		q.spillLen.Store(int32(len(q.spill) - q.spillOff))
	}
	q.inPush.Store(false)
	return ok
}

func (q *SPSC[T]) tryPush(v T) bool {
	t := q.tail.Load()
	if t-q.head.Load() == uint64(len(q.buf)) {
		return false
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

// FlushSpill moves spilled entries into the ring in order, reporting
// whether the spill is now empty. Producer only; called at the producer's
// publish points so backpressure resolves as soon as the consumer drains.
func (q *SPSC[T]) FlushSpill() bool {
	if q.spillLen.Load() == 0 {
		return true
	}
	if !q.inPush.CompareAndSwap(false, true) {
		panic("sim: concurrent SPSC.FlushSpill; the ring has exactly one producer")
	}
	ok := q.flushLocked()
	q.inPush.Store(false)
	return ok
}

func (q *SPSC[T]) flushLocked() bool {
	var zero T
	for q.spillOff < len(q.spill) {
		if !q.tryPush(q.spill[q.spillOff]) {
			q.spillLen.Store(int32(len(q.spill) - q.spillOff))
			return false
		}
		q.spill[q.spillOff] = zero
		q.spillOff++
	}
	q.spill = q.spill[:0]
	q.spillOff = 0
	q.spillLen.Store(0)
	return true
}

// SpillHead returns the oldest spilled entry without removing it. Producer
// only (the spill is producer-private state).
func (q *SPSC[T]) SpillHead() (T, bool) {
	var zero T
	if q.spillOff >= len(q.spill) {
		return zero, false
	}
	return q.spill[q.spillOff], true
}

// Pop removes the oldest ring entry. Consumer only; it never touches the
// spill — spilled entries become poppable only after the producer flushes
// them.
func (q *SPSC[T]) Pop() (T, bool) {
	if !q.inPop.CompareAndSwap(false, true) {
		panic("sim: concurrent SPSC.Pop; the ring has exactly one consumer")
	}
	var zero T
	h := q.head.Load()
	if h == q.tail.Load() {
		q.inPop.Store(false)
		return zero, false
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero
	q.head.Store(h + 1)
	q.inPop.Store(false)
	return v, true
}

// Pending reports whether any entry is outstanding — ring or spill. Safe
// from any goroutine; the group's quiescence scan relies on it.
func (q *SPSC[T]) Pending() bool {
	return q.tail.Load() != q.head.Load() || q.spillLen.Load() > 0
}

// SpillLen reports the outstanding spill count. Safe from any goroutine.
func (q *SPSC[T]) SpillLen() int { return int(q.spillLen.Load()) }
