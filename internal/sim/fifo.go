package sim

// Ring is an unbounded first-in, first-out queue over a power-of-two ring
// buffer that doubles when full: steady-state traffic allocates nothing
// once it has grown to its high-water mark. The zero value is an empty
// ring. It is the one queue under a FIFO, a link's cells in flight and a
// NIC's input FIFO; bounds and wake-ups are its owners' business.
type Ring[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the oldest element
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v, doubling the buffer when it is full. The growth stays in
// the body: a call out of a generic method keeps it from inlining, which
// costs a link about a tenth of its per-cell time.
//
//unetlint:allow hotpathalloc the ring doubles until it holds its owner's high-water mark (a link's cells in flight, a NIC's input FIFO depth) and then never grows again
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest element; the ring must not be empty.
// The vacated slot is zeroed, so the ring keeps nothing it no longer holds
// alive.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns the oldest element in place; the ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

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
