package unet

// Free-list pools backing the steady-state zero-allocation data path
// (DESIGN.md §10). The paper's core claim (§2.1) is that per-message
// processing overhead, not wire time, dominates small-message cost; in this
// simulator the analogous overhead is the Go allocator on the per-message
// path. These pools recycle the two kinds of NI-owned descriptor memory —
// inline payload slabs and buffer-offset lists — so that once a workload
// reaches its high-water mark, moving a message end to end allocates
// nothing.
//
// Ownership protocol: the NIC takes memory out of a pool when it assembles
// a RecvDesc, the descriptor carries it through the receive queue, and the
// application brings it home with Endpoint.Gather or Endpoint.Release when
// it has finished with the descriptor. Skipping that is safe — an
// unreturned slab is simply garbage-collected and the pool allocates a
// replacement — but gives up the zero-allocation steady state;
// PoolStats.Live makes forgotten returns visible to tests.

// PoolStats counts pool traffic. Gets - Puts is the number of items
// currently checked out; Allocs is how many had to be freshly allocated
// (zero in steady state).
type PoolStats struct {
	Gets   uint64
	Puts   uint64
	Allocs uint64
}

// Live reports how many items are checked out of the pool right now.
func (s PoolStats) Live() int { return int(s.Gets - s.Puts) }

// Pool is a LIFO free list of slices. The zero value is ready to use.
// Slices are handed out at zero length and whatever capacity they last grew
// to; consumers extend them with append, so the pool converges on the
// workload's high-water size and then stops allocating. A stack rather
// than a single buffer because consumers nest: a UAM handler that sends
// drains the receive queue and gathers again before the outer message's
// buffer is back. Pool[byte] satisfies atm.BufSource, making it pluggable
// as a reassembly arena.
type Pool[T any] struct {
	free  [][]T
	stats PoolStats
}

// Get pops a slice (len 0), allocating only when the free list is empty.
func (p *Pool[T]) Get() []T {
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	p.stats.Allocs++
	return nil // grown by the consumer's append
}

// Put returns a slice to the pool. The caller must not use s afterwards.
func (p *Pool[T]) Put(s []T) {
	p.stats.Puts++
	p.free = append(p.free, s[:0])
}

// Stats returns a snapshot of the pool counters.
func (p *Pool[T]) Stats() PoolStats { return p.stats }
