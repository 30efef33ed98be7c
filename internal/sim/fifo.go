package sim

import (
	"math/bits"
	"reflect"
)

// Ring is an unbounded first-in, first-out queue over a list of chunks of 4,
// 8, … or 128 entries. A new chunk is the smallest that holds the run being
// queued, up to 128 entries, but no smaller than the ring's length alone
// calls for (up to half of it, once that is 16 or more): a run queued at a
// full tail lies in one chunk, and a ring holds little more than its
// entries and its newest run. Chunks come from a pool and go back to it as
// they drain, so steady-state traffic allocates nothing. NewRing shares one
// pool per type and engine, and an empty ring of it holds nothing. The zero
// value has a pool of its own and keeps its last chunk. It is the one queue
// under a FIFO, a link's cells in flight, a switch port's cells waiting to
// be forwarded and a NIC's input FIFO; bounds and wake-ups are its owners'.
// A ring of a type that holds pointers zeroes each slot it vacates, so it
// keeps nothing alive it no longer holds; one of a pointer-free type, such
// as a cell, leaves the slot as it was.
type Ring[T any] struct {
	pool       *chunkPool[T]
	head, tail *chunk[T] // every chunk but the tail is full
	off, end   int32     // head.buf[off] is the oldest entry, tail.buf[end] the next free slot
	n          int32
	own        bool // the pool is the ring's own
}

type chunk[T any] struct {
	buf  []T
	next *chunk[T]
}

const chunkClasses = 6 // chunks of 4<<0 to 4<<5 entries

// chunkPool holds drained chunks by size class. scrub says whether T holds
// pointers, and so whether a vacated slot is zeroed; it is worked out once,
// when the pool is made.
type chunkPool[T any] struct {
	free         [chunkClasses]*chunk[T]
	scrub, ready bool
}

// init works out scrub, once.
func (p *chunkPool[T]) init() *chunkPool[T] {
	if !p.ready {
		p.scrub, p.ready = holdsPointers(reflect.TypeOf((*T)(nil)).Elem()), true
	}
	return p
}

// holdsPointers reports whether a value of type t holds a pointer the
// garbage collector follows.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		return true
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// NewRing returns an empty ring drawing on e's pool for T. Only code running
// on e may touch it.
func NewRing[T any](e *Engine) Ring[T] { return Ring[T]{pool: Local[chunkPool[T]](e).init()} }

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return int(r.n) }

// Push appends v. Push and Pop make one call each and stay under the
// inliner's budget: a per-cell call that copied the entry cost the 8-host
// storm about a tenth of its time.
func (r *Ring[T]) Push(v T) { r.Room(1)[0] = v }

// Room appends up to n ≥ 1 slots, at least one, that lie contiguous in
// memory and returns them for the caller to fill; they count in Len at
// once. It returns all n, up to 128, unless the tail chunk has some slots
// left but fewer than n.
func (r *Ring[T]) Room(n int) []T {
	if r.tail == nil || int(r.end) == len(r.tail.buf) {
		r.grow(n)
	}
	s := r.tail.buf[r.end:min(len(r.tail.buf), int(r.end)+n)]
	r.end += int32(len(s))
	r.n += int32(len(s))
	return s
}

// grow links a chunk from the pool after the tail: the smallest that holds
// want entries, up to the largest, and no smaller than the length's class.
//
//unetlint:allow hotpathalloc a pool runs dry only until it holds its peak of queued entries, and a zero-value ring makes its own pool once; every later chunk is one a drained ring gave back
func (r *Ring[T]) grow(want int) {
	if r.pool == nil {
		r.pool, r.own = new(chunkPool[T]).init(), true
	}
	class := min(max(bits.Len(uint(r.n)>>4), bits.Len(uint(want-1)>>2)), chunkClasses-1)
	c := r.pool.free[class]
	if c == nil {
		c = &chunk[T]{buf: make([]T, 4<<class)}
	} else {
		r.pool.free[class], c.next = c.next, nil
	}
	if r.tail == nil {
		r.head = c
	} else {
		r.tail.next = c
	}
	r.tail, r.end = c, 0
}

// Span returns the oldest entries, up to n of them, that lie contiguous in
// memory: at least one unless the ring is empty. They stay queued until
// Drop removes them.
func (r *Ring[T]) Span(n int) []T {
	if r.head == nil {
		return nil
	}
	end := len(r.head.buf)
	if r.head == r.tail {
		end = int(r.end)
	}
	return r.head.buf[r.off:min(end, int(r.off)+n)]
}

// Walk returns a walk over the n oldest entries, which the ring must hold.
func (r *Ring[T]) Walk(n int) Walk[T] {
	if n == 0 {
		return Walk[T]{}
	}
	return Walk[T]{seg: r.head.buf[r.off:], next: r.head.next, left: n}
}

// A Walk reads a run of entries oldest first, a stretch that lies contiguous
// in memory at a time, in one pass over the chunks that hold them. The ring
// must not drop the entries while they are read; entries queued meanwhile
// lie past the walk.
type Walk[T any] struct {
	seg  []T       // the chunk being read, from the next entry on
	next *chunk[T] // the chunk after it
	left int       // entries not yet read
}

// WalkSlice returns a walk over s, one stretch.
func WalkSlice[T any](s []T) Walk[T] { return Walk[T]{seg: s, left: len(s)} }

// Next returns the next entries, up to n of them, that lie contiguous in
// memory: at least one while the walk has any left and n ≥ 1.
func (w *Walk[T]) Next(n int) []T {
	if w.left == 0 {
		return nil
	}
	if len(w.seg) == 0 {
		w.seg, w.next = w.next.buf, w.next.next
	}
	s := w.seg[:min(n, w.left, len(w.seg))]
	w.seg, w.left = w.seg[len(s):], w.left-len(s)
	return s
}

// Read copies the next entries into dst, as many as it holds or the walk
// has left, and returns how many it copied.
func (w *Walk[T]) Read(dst []T) int {
	k := 0
	for k < len(dst) && w.left > 0 {
		k += copy(dst[k:], w.Next(len(dst)-k))
	}
	return k
}

// Drop removes the k oldest entries; the ring must hold k. A ring whose
// entries hold pointers zeroes their slots.
func (r *Ring[T]) Drop(k int) {
	for k > 0 {
		s := r.Span(k)
		if r.pool.scrub {
			clear(s)
		}
		r.off += int32(len(s))
		r.n -= int32(len(s))
		k -= len(s)
		if r.n == 0 || int(r.off) == len(r.head.buf) {
			r.release()
		}
	}
}

// Pop removes and returns the oldest element; the ring must not be empty.
func (r *Ring[T]) Pop() T {
	v := r.head.buf[r.off]
	r.drop1()
	return v
}

// drop1 is Drop(1) without the loop or the call to clear.
func (r *Ring[T]) drop1() {
	if r.pool.scrub {
		r.head.buf[r.off] = *new(T)
	}
	r.off++
	r.n--
	if r.n == 0 || int(r.off) == len(r.head.buf) {
		r.release()
	}
}

// release gives the drained head chunk back to the pool, unless it is the
// last chunk of a ring with a pool of its own.
func (r *Ring[T]) release() {
	h := r.head
	if h == r.tail && r.own {
		r.off, r.end = 0, 0
		return
	}
	r.head, r.off = h.next, 0
	if r.head == nil {
		r.tail, r.end = nil, 0
	}
	class := bits.Len(uint(len(h.buf)) >> 3)
	r.pool.free[class], h.next = h, r.pool.free[class]
}

// Front returns the oldest element in place; the ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.head.buf[r.off] }

// Back returns the newest element in place; the ring must not be empty.
func (r *Ring[T]) Back() *T { return &r.tail.buf[r.end-1] }

// FIFO is a bounded or unbounded queue connecting simulated producers and
// consumers. Processes block on Put when a bounded queue is full and on Get
// when it is empty; callbacks (non-process contexts such as wire-delivery
// events) use TryPut/TryGet, whose failure models hardware FIFO overflow.
type FIFO[T any] struct {
	// items is a field, not embedded: Ring's Push would bypass the bound
	// and the wake-ups.
	items    Ring[T]
	capacity int // 0 means unbounded
	nonEmpty Cond
	nonFull  Cond
}

// NewFIFO returns a queue holding at most capacity items; capacity ≤ 0
// means unbounded.
func NewFIFO[T any](capacity int) *FIFO[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &FIFO[T]{capacity: capacity}
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.items.Len() }

func (q *FIFO[T]) full() bool { return q.capacity > 0 && q.items.Len() >= q.capacity }

// TryPut appends v if there is room and reports whether it was accepted;
// the caller counts a rejected item where it is dropped.
func (q *FIFO[T]) TryPut(v T) bool {
	if q.full() {
		return false
	}
	q.items.Push(v)
	q.nonEmpty.Signal()
	return true
}

// Put appends v, blocking the process while the queue is full.
func (q *FIFO[T]) Put(p *Proc, v T) {
	for q.full() {
		p.Wait(&q.nonFull)
	}
	q.items.Push(v)
	q.nonEmpty.Signal()
}

// TryGet removes and returns the oldest item, if any.
func (q *FIFO[T]) TryGet() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	v := q.items.Pop()
	q.nonFull.Signal()
	return v, true
}

// Get removes and returns the oldest item, blocking the process while the
// queue is empty.
func (q *FIFO[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		p.Wait(&q.nonEmpty)
	}
	v, _ := q.TryGet()
	return v
}

// NotEmpty exposes the condition signaled when an item arrives, for callers
// that multiplex waits across several queues.
func (q *FIFO[T]) NotEmpty() *Cond { return &q.nonEmpty }
