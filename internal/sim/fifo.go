package sim

// FIFO is a bounded or unbounded queue connecting simulated producers and
// consumers. Processes block on Put when a bounded queue is full and on Get
// when it is empty; callbacks (non-process contexts such as wire-delivery
// events) use TryPut/TryGet, whose failure models hardware FIFO overflow.
//
// Storage is a power-of-two ring buffer: steady-state producer/consumer
// traffic allocates nothing once the ring has grown to the high-water mark.
type FIFO[T any] struct {
	ring     []T // len(ring) is 0 or a power of two
	head     int // index of the oldest element
	n        int // number of queued elements
	capacity int // 0 means unbounded
	nonEmpty Cond
	nonFull  Cond
	drops    uint64
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
func (q *FIFO[T]) Len() int { return q.n }

// Drops returns how many TryPut calls failed because the queue was full.
func (q *FIFO[T]) Drops() uint64 { return q.drops }

func (q *FIFO[T]) full() bool { return q.capacity > 0 && q.n >= q.capacity }

// push appends v, growing the ring if necessary.
func (q *FIFO[T]) push(v T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(4, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring = grown
		q.head = 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// TryPut appends v if there is room and reports whether it was accepted.
// A rejected item counts as a drop.
func (q *FIFO[T]) TryPut(v T) bool {
	if q.full() {
		q.drops++
		return false
	}
	q.push(v)
	q.nonEmpty.Signal()
	return true
}

// Put appends v, blocking the process while the queue is full.
func (q *FIFO[T]) Put(p *Proc, v T) {
	for q.full() {
		p.Wait(&q.nonFull)
	}
	q.push(v)
	q.nonEmpty.Signal()
}

// TryGet removes and returns the oldest item, if any.
func (q *FIFO[T]) TryGet() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.ring[q.head]
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.nonFull.Signal()
	return v, true
}

// Get removes and returns the oldest item, blocking the process while the
// queue is empty.
func (q *FIFO[T]) Get(p *Proc) T {
	for q.n == 0 {
		p.Wait(&q.nonEmpty)
	}
	v, _ := q.TryGet()
	return v
}

// NotEmpty exposes the condition signaled when an item arrives, for callers
// that multiplex waits across several queues.
func (q *FIFO[T]) NotEmpty() *Cond { return &q.nonEmpty }
