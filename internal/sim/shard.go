package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded execution: a Group partitions one simulation across several
// Engines ("shards"), each with its own event arena, heap and process set,
// and runs them on parallel goroutines under conservative time windows.
//
// The scheme exploits the same property of the modeled system that the
// paper's cluster architecture rests on: hosts interact only through links
// with a fixed minimum latency (cell serialization plus fiber propagation),
// so an event executing at virtual time t in one shard cannot affect
// another shard before t+L, where L is the latency of the link between
// them. Every cross-shard channel is registered as an Exchange between a
// producing and a consuming shard (AddExchangeFrom), and the pair's
// minimum latency as its lookahead (ObserveLookaheadBetween); together
// they form the static graph the window protocol in neighbor.go
// synchronizes over. Within a window shards share no mutable state, so
// they run without locks.
//
// The sharded run reproduces the serial one because a message's place in
// the destination's event order is a function of virtual times only: its
// arrival fires at (arrival time, sender's clock when the delivery was
// armed, exchange registration index) — see Engine.ArriveArg — never of
// the wall-clock moment the destination drained it or of where a window
// boundary fell.

// Exchange is a cross-shard channel: a lock-free SPSC ring (spsc.go) the
// producing shard pushes into as it runs, and a consumer side that turns
// ring entries into events on the destination engine.
//
// Drain is called only by the destination shard's worker, at its round
// tops, while the producer keeps running: it pops what the ring has
// published and schedules the deliveries with Engine.ArriveArg under the
// index AddExchangeFrom returned. Every delivery must lie at least the
// pair's lookahead after the send.
//
// Pending reads only atomics and may be called from any shard — the
// group's quiescence scan uses it.
type Exchange interface {
	Drain()
	Pending() bool
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
	minLA     time.Duration             // min over every observed bound (diagnostic)
	exchanges []registration            // in registration order

	prof    []ShardProfile
	aborted atomic.Bool
	failure atomic.Value // string

	// Window-protocol state (see neighbor.go), rebuilt by setup at the top
	// of each run, before any worker goroutine exists. nextAt, pub, sigs,
	// waiting, waitGen, gmin and ndone are the only cross-shard-mutable
	// pieces and are all atomics or mutex-guarded; the edge sets are
	// immutable during a run.
	nextAt  []atomic.Int64   // per-shard earliest pending event, for the quiescence fold
	pub     []paddedClock    // published per-shard clocks, cache-line padded
	sigs    []shardSignal    // per-shard wake channels
	waiting atomic.Int32     // shards currently blocked in waitNeighbor
	waitGen atomic.Uint64    // wait entries; guards quiescentScan vs ABA on waiting
	gmin    atomic.Int64     // quiescence floor: global min next-event time
	ndone   atomic.Bool      // termination flag
	scanMu  sync.Mutex       // serializes quiescentScan
	inEdges [][]inEdge       // direct in-edges per shard, ordered by source
	outNbrs [][]int          // distinct out-neighbor shard ids per shard
	minInLA []int64          // min in-edge lookahead per shard (floor lift)
	inbox   [][]registration // exchanges into each shard, registration order
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

// Shards reports the number of engines in the group, including the root.
func (g *Group) Shards() int { return len(g.shards) }

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
// later. It constrains only that pair — shards linked by slow paths keep
// wide windows even when some other pair is tightly coupled.
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
	if g.minLA == 0 || d < g.minLA {
		g.minLA = d
	}
}

// Lookahead returns the tightest lookahead observed on any pair — the
// width a single global window would have to use. Individual shards are
// bounded only by their own in-neighbors; see Profile.
func (g *Group) Lookahead() time.Duration { return g.minLA }

const noEvent = int64(math.MaxInt64)

// run executes the sharded simulation until global quiescence, or until
// every pending event lies beyond limit (limit < 0 means no limit). It is
// entered through Run/RunUntil on the root engine. The calling goroutine
// drives shard 0; every other shard gets a worker goroutine that lives for
// the duration of the call.
func (g *Group) run(limit time.Duration) time.Duration {
	n := len(g.shards)
	if len(g.prof) != n {
		g.prof = make([]ShardProfile, n)
		for i := range g.prof {
			g.prof[i].Shard = i
		}
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

// abortOnPanic converts a shard panic into a group-wide abort so the
// remaining shards do not wait on a clock that will never move. The panic
// is swallowed here — a worker goroutine must not crash the process — and
// re-raised by run on the caller's goroutine once every shard has stopped.
// Only the first failure is recorded; the cascade panics the other shards
// raise when they observe the abort are not it.
func (g *Group) abortOnPanic() {
	if r := recover(); r != nil {
		if g.aborted.CompareAndSwap(false, true) {
			g.failure.Store(fmt.Sprint(r))
		}
		g.notifyAll()
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
