package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded execution: a Group partitions one simulation across several
// Engines ("shards"), each with its own event arena, heap and process set,
// and runs them on parallel goroutines under conservative time windows.
// Hosts interact only through links with a fixed minimum latency, so an
// event at t in one shard cannot affect another before t+L. Every
// cross-shard channel is registered as an Exchange (AddExchangeFrom) and
// its pair's minimum latency as a lookahead (ObserveLookaheadBetween).
//
// Every shard runs the same window. One round, for each shard:
//
//  1. drain its in-exchanges into arrival events;
//  2. contribute its next event time to a barrier that returns the least
//     contribution, m; the run ends when there is none or m lies past the
//     limit;
//  3. run the window [m, min(m+la, stop)), la the least lookahead of any
//     pair that carries an exchange;
//  4. meet the other shards at a second barrier.
//
// A message sent at t ≥ m arrives no earlier than m+la, so nothing arrives
// inside the window that the drains had not scheduled. Drains run only
// between windows, so an exchange's buffer needs no synchronization of its
// own: the barriers order its writer and its reader.
//
// The sharded run reproduces the serial one because an arrival fires at
// (arrival time, sender's clock when the delivery was armed, exchange
// index), see Engine.ArriveArg, whichever round drained it. And a run is a
// function of its inputs because m and la are fixed by virtual time, never
// by goroutine timing: what a drain hands a shard, and where a window
// splits a receiver's trains, is the same in every run.

// Exchange is a cross-shard channel: the producing shard buffers messages
// as it runs its window, and Drain, called by the destination shard's
// worker between windows, empties the buffer into events on the
// destination engine with Engine.ArriveArg, under the index
// AddExchangeFrom returned. Every delivery must lie at least the pair's
// lookahead after its send.
type Exchange interface {
	Drain()
}

// registration is one AddExchangeFrom call; its position in
// Group.exchanges is the exchange's index.
type registration struct {
	src, dst int
	ex       Exchange
}

// pairKey indexes the per-pair lookahead observations.
type pairKey struct{ src, dst int }

// Group coordinates the shards of one simulation. Create it implicitly via
// Engine.NewShard on the root engine; drive it by calling Run/RunUntil on
// the root.
type Group struct {
	root      *Engine
	shards    []*Engine
	pairLA    map[pairKey]time.Duration // direct per-pair minima
	exchanges []registration            // in registration order

	prof    []ShardProfile
	aborted atomic.Bool
	failure atomic.Value // string

	// Per-run window state, rebuilt by setup before any worker exists.
	la    int64            // least lookahead over the pairs that carry an exchange
	inbox [][]registration // exchanges into each shard, registration order
	bar   barrier
}

// NewShard creates a new shard engine attached to e's group, creating the
// group on first use (e becomes shard 0, the root). Only the root engine
// may be driven with Run/RunUntil; shard engines are populated with
// processes and events and then executed by the group. Shards must be
// created before the first Run.
func (e *Engine) NewShard() *Engine {
	if e.group == nil {
		e.group = &Group{root: e, shards: []*Engine{e}}
		e.shardID = 0
	}
	g := e.group
	if g.root != e {
		panic("sim: NewShard must be called on the group's root engine")
	}
	s := New(0)
	s.group = g
	s.shardID = int32(len(g.shards))
	g.shards = append(g.shards, s)
	return s
}

// Group returns the shard group e belongs to (nil for a plain serial
// engine).
func (e *Engine) Group() *Group { return e.group }

// ShardProfile is one shard's window counts, accumulated across runs by
// the shard's own worker: windows run, barrier arrivals that waited for
// another shard, and the wall-clock time those waits took, which never
// feeds virtual time. The frozen
// bench's sim.shard_* rungs read them (ROADMAP 2(l)).
type ShardProfile struct {
	Windows, Stalls uint64
	BarrierWait     time.Duration
}

// GroupProfile is every shard's counts, the root's first.
type GroupProfile struct{ Shards []ShardProfile }

// Profile copies the shards' counts; call it between runs.
func (g *Group) Profile() GroupProfile { return GroupProfile{Shards: slices.Clone(g.prof)} }

// Total sums the shards' counts.
func (gp GroupProfile) Total() (t ShardProfile) {
	for _, p := range gp.Shards {
		t.Windows += p.Windows
		t.Stalls += p.Stalls
		t.BarrierWait += p.BarrierWait
	}
	return t
}

// AddExchangeFrom registers ex as a channel from shard src into shard dst
// and returns its registration index, which ex passes to dst.ArriveArg
// with every delivery: arrivals that tie on both arrival and send time
// fire in registration order. The pair needs a lookahead
// (ObserveLookaheadBetween) before the group runs.
func (g *Group) AddExchangeFrom(src, dst *Engine, ex Exchange) int {
	if src.group != g || dst.group != g {
		panic("sim: AddExchangeFrom endpoints must be members of this group")
	}
	if src == dst {
		panic("sim: AddExchangeFrom endpoints are the same shard")
	}
	g.exchanges = append(g.exchanges, registration{src: int(src.shardID), dst: int(dst.shardID), ex: ex})
	return len(g.exchanges) - 1
}

// ObserveLookaheadBetween lower-bounds the direct src→dst path with d:
// every message sent from src to dst at time t must be scheduled at t+d or
// later. The group's window is the least bound of the pairs that carry an
// exchange.
func (g *Group) ObserveLookaheadBetween(src, dst *Engine, d time.Duration) {
	if src.group != g || dst.group != g {
		panic("sim: ObserveLookaheadBetween endpoints must be members of this group")
	}
	if src == dst {
		panic("sim: ObserveLookaheadBetween endpoints are the same shard")
	}
	if d <= 0 {
		panic(fmt.Sprintf("sim: cross-shard lookahead %v for shards %d→%d must be positive", d, src.shardID, dst.shardID))
	}
	if g.pairLA == nil {
		g.pairLA = make(map[pairKey]time.Duration)
	}
	k := pairKey{int(src.shardID), int(dst.shardID)}
	if cur, ok := g.pairLA[k]; !ok || d < cur {
		g.pairLA[k] = d
	}
}

const noEvent = int64(math.MaxInt64)

// yieldBudget is how many runtime.Gosched rounds a waiter tries after its
// spin budget before parking. On an oversubscribed machine a yield usually
// hands the core straight to the shard being waited on, which is far
// cheaper than a futex sleep/wake pair.
const yieldBudget = 64

// run executes the sharded simulation until global quiescence, or until
// every pending event lies beyond limit (limit < 0 means no limit). It is
// entered through Run/RunUntil on the root engine. The calling goroutine
// drives shard 0; every other shard gets a worker goroutine that lives for
// the duration of the call.
func (g *Group) run(limit time.Duration) time.Duration {
	n := len(g.shards)
	if len(g.prof) != n {
		g.prof = make([]ShardProfile, n)
	}
	g.setup()
	var wg sync.WaitGroup
	for id := 1; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer g.abortOnPanic()
			g.runShard(id, limit)
		}(id)
	}
	func() {
		defer g.abortOnPanic()
		g.runShard(0, limit)
	}()
	wg.Wait()
	if g.aborted.Load() {
		msg, _ := g.failure.Load().(string)
		panic("sim: shard aborted: " + msg)
	}
	now := g.root.now
	for _, s := range g.shards {
		if s.now > now {
			now = s.now
		}
	}
	return now
}

// setup builds the per-run window state: la, each shard's in-exchanges in
// registration order and the barrier. Every registered exchange must cross
// a pair with an observed lookahead; the protocol has no safe window width
// for one that does not.
func (g *Group) setup() {
	n := len(g.shards)
	g.la = noEvent
	g.inbox = make([][]registration, n)
	for idx, r := range g.exchanges {
		d, ok := g.pairLA[pairKey{r.src, r.dst}]
		if !ok {
			panic(fmt.Sprintf("sim: exchange %d crosses shards %d→%d, a pair with no observed lookahead", idx, r.src, r.dst))
		}
		g.la = min(g.la, int64(d))
		g.inbox[r.dst] = append(g.inbox[r.dst], r)
	}
	// With a core per shard, spinning through another shard's window is
	// cheaper than any sleep; without, fall through to yielding almost at
	// once.
	spin := 16
	if runtime.GOMAXPROCS(0) >= n {
		spin = 1024
	}
	g.bar.reset(n, spin)
}

// runShard is shard id's round loop (see the top of this file).
func (g *Group) runShard(id int, limit time.Duration) {
	e := g.shards[id]
	prof := &g.prof[id]
	stop := int64(stopFor(limit))
	for {
		for _, r := range g.inbox[id] {
			r.ex.Drain()
		}
		next := noEvent
		if ev := e.peekLive(); ev != nil {
			next = int64(ev.at)
		}
		m := g.reduce(next, prof)
		if m >= stop {
			e.alignNow(limit)
			return
		}
		e.runWindow(time.Duration(min(satAdd(m, g.la), stop)))
		prof.Windows++
		g.reduce(noEvent, prof)
	}
}

// barrier is the group's min-reducing barrier: every shard arrives with a
// value, and every arrival of a round returns the least of them. The last
// to arrive folds the round; the others spin, then yield, then park until
// it has.
type barrier struct {
	n       int32
	spin    int
	arrived atomic.Int32
	acc     atomic.Int64  // least value of the round being gathered
	gen     atomic.Uint64 // rounds folded
	least   int64         // the last folded round's value, written before gen moves
	parked  atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond
}

func (b *barrier) reset(n, spin int) {
	b.n, b.spin = int32(n), spin
	b.arrived.Store(0)
	b.acc.Store(noEvent)
	b.cond.L = &b.mu
}

// wake releases every parked waiter to re-check the round and the abort
// flag. Taking the mutex orders the broadcast after any waiter's check.
func (b *barrier) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// reduce arrives at the barrier with v and returns the least value any
// shard arrived with in this round. A shard that waits counts a stall and
// the wall time it waited, which feeds ShardProfile alone.
//
//unetlint:allow nondeterminism wall-clock wait for the bench's sim.shard_sync_wait rung only; never feeds virtual time or event order
func (g *Group) reduce(v int64, prof *ShardProfile) int64 {
	b := &g.bar
	gen := b.gen.Load()
	for cur := b.acc.Load(); v < cur && !b.acc.CompareAndSwap(cur, v); cur = b.acc.Load() {
	}
	if b.arrived.Add(1) == b.n {
		// Nobody leaves or arrives again until gen moves, so the reset
		// cannot lose a later round's arrival.
		b.least = b.acc.Swap(noEvent)
		b.arrived.Store(0)
		b.gen.Add(1)
		// A waiter raises parked before its last look at gen, so either it
		// sees the new round or this sees it parked.
		if b.parked.Load() > 0 {
			b.wake()
		}
		return b.least
	}
	t0 := time.Now()
	prof.Stalls++
	for spins := 0; b.gen.Load() == gen; spins++ {
		if g.aborted.Load() {
			panic("sim: peer shard failed")
		}
		switch {
		case spins < b.spin:
		case spins < b.spin+yieldBudget:
			runtime.Gosched()
		default:
			b.mu.Lock()
			b.parked.Add(1)
			for b.gen.Load() == gen && !g.aborted.Load() {
				b.cond.Wait()
			}
			b.parked.Add(-1)
			b.mu.Unlock()
		}
	}
	prof.BarrierWait += time.Since(t0)
	return b.least
}

// abortOnPanic converts a shard panic into a group-wide abort so the
// remaining shards do not wait at a barrier the failed one will never
// reach. The panic is swallowed here — a worker goroutine must not crash
// the process — and re-raised by run on the caller's goroutine once every
// shard has stopped. Only the first failure is recorded; the cascade
// panics the other shards raise when they observe the abort are not it.
func (g *Group) abortOnPanic() {
	if r := recover(); r != nil {
		if g.aborted.CompareAndSwap(false, true) {
			g.failure.Store(fmt.Sprint(r))
		}
		g.bar.wake()
	}
}

// satAdd adds two non-negative int64 durations, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// stopFor converts RunUntil's inclusive limit into runWindow's exclusive
// bound.
func stopFor(limit time.Duration) time.Duration {
	if limit < 0 || limit >= math.MaxInt64-1 {
		return time.Duration(math.MaxInt64)
	}
	return limit + 1
}

// alignNow reproduces serial RunUntil's clock semantics at the end of a
// bounded run: the clock advances to the limit only when events remain
// beyond it.
func (e *Engine) alignNow(limit time.Duration) {
	if limit >= 0 && limit > e.now && e.PendingEvents() > 0 {
		e.now = limit
	}
}

// shutdown terminates every shard's processes (root last, matching the
// order resources were created in reverse).
func (g *Group) shutdown() {
	for i := len(g.shards) - 1; i >= 1; i-- {
		g.shards[i].shutdownLocal()
	}
	g.root.shutdownLocal()
}
