package sim

import "sync/atomic"

// SPSC is a lock-free single-producer/single-consumer queue, the transport
// under cross-shard exchanges in the neighbor-synchronized window protocol
// (see neighbor.go). The producing shard pushes messages as it runs its
// window; the consuming shard pops them at its own round boundaries
// without stopping the producer — no lock, no barrier, no syscall on the
// common path.
//
// A push never fails and never hides: the message is poppable the moment
// Push returns. The window protocol's one ordering rule — a message is
// pushed before the clock that covers it is published — rests on that. A
// producer that waited for space could deadlock against a consumer waiting
// for the producer's clock, so a full ring grows instead: the producer
// links a ring of twice the size and writes there from then on, the
// consumer follows the link when it has emptied the old ring, and the old
// ring is left to the collector. head and tail count messages over the
// queue's whole life, so a message's number says which ring holds it
// (ring.start) and where (number & mask). A queue that has reached its
// high-water mark allocates nothing.
//
// Ownership contract: exactly one goroutine may call Push and exactly one
// may call Pop. Both carry reentrance guards that panic on a detected
// second producer or consumer — a cheap tripwire for the single-writer
// discipline the lock-freedom rests on. Pending reads only atomics and is
// safe from any goroutine (the termination scan uses it).
//
// Memory ordering: the producer writes the slot (and, when it grew, the
// link), then advances tail; the consumer reads head/tail, then the link
// and the slot. Go's sync/atomic operations are sequentially consistent, so
// the tail advance is the release edge that publishes both and the
// consumer's tail load is the matching acquire — the queue is
// race-detector-clean under concurrent push/pop.
type SPSC[T any] struct {
	head atomic.Uint64 // messages popped; advanced only by the consumer
	tail atomic.Uint64 // messages pushed; advanced only by the producer
	prod *spscRing[T]  // the newest ring; producer only
	cons *spscRing[T]  // the oldest ring not yet emptied; consumer only

	// inPush/inPop detect a second concurrent producer or consumer.
	inPush atomic.Bool
	inPop  atomic.Bool
}

// spscRing is one power-of-two buffer of the queue. It holds messages numbered
// start and up, until the producer links a bigger one.
type spscRing[T any] struct {
	buf   []T
	start uint64
	next  atomic.Pointer[spscRing[T]]
}

// NewSPSC returns a queue whose first ring has capacity rounded up to a
// power of two (at least 8).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 8
	for n < capacity {
		n <<= 1
	}
	r := &spscRing[T]{buf: make([]T, n)}
	return &SPSC[T]{prod: r, cons: r}
}

// Cap returns the capacity of the ring being pushed to. Producer only, or
// with the queue at rest.
func (q *SPSC[T]) Cap() int { return len(q.prod.buf) }

// Push appends v. Producer only.
func (q *SPSC[T]) Push(v T) {
	if !q.inPush.CompareAndSwap(false, true) {
		panic("sim: concurrent SPSC.Push; the ring has exactly one producer")
	}
	t := q.tail.Load()
	r := q.prod
	// A consumer still in an older ring holds none of this one's slots.
	if t-max(q.head.Load(), r.start) == uint64(len(r.buf)) {
		//unetlint:allow hotpathalloc a full ring links one twice its size; rings double until one holds the most the producer gets ahead of the consumer, and then never grow again
		r = &spscRing[T]{buf: make([]T, 2*len(r.buf)), start: t}
		q.prod.next.Store(r)
		q.prod = r
	}
	r.buf[t&uint64(len(r.buf)-1)] = v
	q.tail.Store(t + 1)
	q.inPush.Store(false)
}

// Pop removes the oldest entry. Consumer only.
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
	r := q.cons
	if next := r.next.Load(); next != nil && h == next.start {
		r, q.cons = next, next
	}
	i := h & uint64(len(r.buf)-1)
	v := r.buf[i]
	r.buf[i] = zero
	q.head.Store(h + 1)
	q.inPop.Store(false)
	return v, true
}

// Len returns the number of entries published and not yet popped: that
// many Pops in a row succeed, whatever the producer does. Consumer only.
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// Pending reports whether any entry is outstanding. Safe from any
// goroutine; the group's quiescence scan relies on it.
func (q *SPSC[T]) Pending() bool {
	return q.tail.Load() != q.head.Load()
}
