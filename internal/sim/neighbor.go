package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Neighbor-synchronized conservative windows: the group's one window
// protocol, Chandy–Misra–Bryant-style point-to-point synchronization
// specialized to the static exchange graph. No shard ever stops for the
// whole group on the common path.
//
//   - Every shard i owns a published clock pub[i]: a promise that no
//     message it has not yet made visible will arrive anywhere before
//     pub[i] + L(i→dst). It advances the clock at its own round tops,
//     with no coordination beyond one atomic store and a wake to its
//     out-neighbors.
//   - Shard i's window horizon is computed from its direct in-neighbors
//     alone: H_i = min over in-edges (pub[j] + L(j→i)). Shards with no
//     path between them never wait on each other; a sparse topology
//     synchronizes only where influence can actually flow.
//   - Cross-shard messages travel through lock-free SPSC rings (spsc.go),
//     pushed at send time by the producing shard and drained by the
//     destination at its round tops into ordinary events
//     (Engine.ArriveArg). The event carries the sender's clock and the
//     exchange's registration index as its tie-break keys, so which round
//     drained it, and where a window boundary fell, leave no trace in the
//     destination's event order.
//
// Safety invariant. When shard i runs a window bounded by H_i, every
// message that could arrive before H_i is already an event in its heap:
// producer j pushed the message to the ring before publishing any
// pub[j] ≥ send time (pushes precede the publish store in program order,
// and Go's sequentially-consistent atomics make the publish the release
// edge), and arrival = send + link latency ≥ send + L(j→i), so a message
// still invisible after i reads pub[j] has arrival ≥ pub[j] + L(j→i) ≥
// H_i. A push never fails and is visible when it returns (a full ring
// grows, spsc.go), so the rule has no exception.
//
// Progress. A purely neighbor-driven horizon can creep in lookahead-sized
// steps across idle stretches (the classic CMB lookahead creep). The
// escape hatch is the quiescence scan: when every shard is simultaneously
// blocked, the last one to block scans the rings and — if all are empty —
// folds the global minimum next-event time m. If m is beyond the run
// limit the group is done; otherwise m becomes gmin, a floor every shard
// may add its minimum in-edge lookahead to (H_i ≥ gmin + min L(*→i) is
// safe because any future message for i originates at an event ≥ m). One
// fold per idle gap fast-forwards the group across quiet phases.
//
// Termination is the same scan: all shards blocked + all rings empty +
// global minimum beyond the limit ⇒ done flag + wake-all. The scan runs
// under a mutex off the hot path; the hot path itself crosses no locks —
// publishes are atomic stores, waits are epoch-counted spins that park on
// a per-shard condition variable only after a yield budget.

// inEdge is a direct influence edge into a shard: messages from src reach
// this shard no earlier than pub[src] + la.
type inEdge struct {
	src int
	la  int64
}

// paddedClock is a published shard clock on its own cache line, so
// neighbor polls of one shard's clock do not false-share with another's.
type paddedClock struct {
	v atomic.Int64
	_ [56]byte
}

// yieldBudget is how many runtime.Gosched rounds a waiter tries after its
// spin budget before parking. On an oversubscribed machine a yield usually
// hands the core straight to the shard being waited on, which is far
// cheaper than a futex sleep/wake pair.
const yieldBudget = 64

// shardSignal is the per-shard wake channel: an epoch counter bumped by
// anyone who changes state this shard might be waiting on, plus a condition
// variable for waiters that exhausted the spin/yield ladder. The epoch is
// read before the waiter samples neighbor state, so a publish between
// sampling and parking cannot be missed.
type shardSignal struct {
	epoch  atomic.Uint64
	parked atomic.Bool
	mu     sync.Mutex
	cond   *sync.Cond
	spin   int
	_      [24]byte // keep adjacent signals off one cache line
}

// notify wakes shard id: bump its epoch, then — only if it is parked —
// take its mutex to order the broadcast against a concurrent Wait entry.
// The sequentially-consistent epoch bump before the parked load pairs with
// the waiter's parked store before its epoch re-check (Dekker-style), so
// either the waiter sees the new epoch or the notifier sees it parked.
func (g *Group) notify(id int) {
	s := &g.sigs[id]
	s.epoch.Add(1)
	if s.parked.Load() {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty critical section orders the broadcast after any in-flight Wait entry
		s.cond.Broadcast()
	}
}

// notifyAll wakes every shard (termination, gmin updates, aborts).
func (g *Group) notifyAll() {
	for i := range g.sigs {
		g.notify(i)
	}
}

// setup builds the per-run protocol state: the direct edge sets
// (deterministically ordered by shard index — no map iteration), published
// clocks and wake signals. Every registered exchange must cross a pair
// with an observed lookahead; the protocol has no safe window width for
// one that does not.
func (g *Group) setup() {
	n := len(g.shards)

	// Direct-edge minimum latency matrix; math.MaxInt64 = no edge.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
		for j := range w[i] {
			w[i][j] = math.MaxInt64
		}
	}
	for idx, r := range g.exchanges {
		d, ok := g.pairLA[pairKey{r.src, r.dst}]
		if !ok {
			panic(fmt.Sprintf("sim: exchange %d crosses shards %d→%d, a pair with no observed lookahead", idx, r.src, r.dst))
		}
		w[r.src][r.dst] = int64(d)
	}

	g.inEdges = make([][]inEdge, n)
	g.outNbrs = make([][]int, n)
	g.minInLA = make([]int64, n)
	g.inbox = make([][]registration, n)
	for dst := 0; dst < n; dst++ {
		min := int64(math.MaxInt64)
		for src := 0; src < n; src++ {
			if w[src][dst] == math.MaxInt64 {
				continue
			}
			g.inEdges[dst] = append(g.inEdges[dst], inEdge{src: src, la: w[src][dst]})
			g.outNbrs[src] = append(g.outNbrs[src], dst)
			if w[src][dst] < min {
				min = w[src][dst]
			}
		}
		g.minInLA[dst] = min
	}
	for _, r := range g.exchanges {
		g.inbox[r.dst] = append(g.inbox[r.dst], r)
	}

	if len(g.pub) != n {
		g.nextAt = make([]atomic.Int64, n)
		g.pub = make([]paddedClock, n)
		g.sigs = make([]shardSignal, n)
		for i := range g.sigs {
			g.sigs[i].cond = sync.NewCond(&g.sigs[i].mu)
		}
	}
	// With a core per shard, spinning through a neighbor's window is
	// cheaper than any sleep; without, fall through to yielding almost at
	// once.
	spin := 16
	if runtime.GOMAXPROCS(0) >= n {
		spin = 1024
	}
	for i := range g.sigs {
		g.sigs[i].spin = spin
		g.pub[i].v.Store(0)
	}
	g.waiting.Store(0)
	g.gmin.Store(0)
	g.ndone.Store(false)
}

// runShard is the per-shard worker loop. Each round: snapshot the wake
// epoch, compute the horizon from direct in-neighbor clocks (lifted by the
// quiescence floor when one is set), drain in-rings into the engine as
// arrival events, publish own progress, then either run a window up to the
// horizon or wait for a neighbor to move.
func (g *Group) runShard(id int, limit time.Duration) {
	e := g.shards[id]
	prof := &g.prof[id]
	sig := &g.sigs[id]
	stop := stopFor(limit)
	inbox := g.inbox[id]
	for {
		if g.ndone.Load() {
			e.alignNow(limit)
			return
		}
		// The epoch snapshot precedes every neighbor-state read below: any
		// relevant change after this point bumps the epoch and aborts a
		// subsequent wait immediately.
		ep := sig.epoch.Load()
		h := g.horizon(id)

		// Move ring traffic into the engine: drains turn published messages
		// into arrival events, so the heap peek below already covers them.
		for _, r := range inbox {
			if r.ex.Pending() {
				r.ex.Drain()
			}
		}

		// Earliest pending work, cross arrivals included.
		t := noEvent
		if ev := e.peekLive(); ev != nil {
			t = int64(ev.at)
		}
		g.nextAt[id].Store(t)

		// Publish progress: nothing new can leave this shard before its next
		// event. The store is this shard's release edge for all ring pushes
		// so far.
		if p := min(t, h); p > g.pub[id].v.Load() {
			g.pub[id].v.Store(p)
			for _, d := range g.outNbrs[id] {
				g.notify(d)
			}
		}

		bound := stop
		if h < int64(stop) {
			bound = time.Duration(h)
		}
		if t < int64(bound) {
			e.runWindow(bound)
			prof.Windows++
			continue
		}
		g.waitNeighbor(prof, sig, ep, limit)
	}
}

// horizon is how far shard id may run: the least in-neighbor clock plus
// that edge's lookahead, lifted to the quiescence floor plus the least
// in-edge lookahead.
func (g *Group) horizon(id int) int64 {
	h := int64(math.MaxInt64)
	for _, ed := range g.inEdges[id] {
		h = min(h, satAdd(g.pub[ed.src].v.Load(), ed.la))
	}
	if minIn := g.minInLA[id]; minIn != math.MaxInt64 {
		h = max(h, satAdd(g.gmin.Load(), minIn))
	}
	return h
}

// waitNeighbor blocks a shard whose horizon has caught up with its work:
// spin briefly, yield for a while, then park on the shard's signal until a
// neighbor publishes, the quiescence floor moves, the run completes, or
// the group aborts. The n-th shard to block runs the quiescence scan. The
// wall-clock reads exist only for the frozen bench's sim.shard_sync_wait
// rung; nothing derived from them may feed virtual time.
//
//unetlint:allow nondeterminism wall-clock wait for the bench's sim.shard_sync_wait rung only; never feeds virtual time or event order
func (g *Group) waitNeighbor(prof *ShardProfile, sig *shardSignal, ep uint64, limit time.Duration) {
	t0 := time.Now()
	prof.Stalls++
	// The generation bump must precede the waiting increment: a scan that
	// sees waiting==n afterwards is guaranteed to also see this entry's
	// bump, so an escape/re-enter cycle can never restore waiting==n
	// without moving the generation (the ABA the scan guards against).
	g.waitGen.Add(1)
	if g.waiting.Add(1) == int32(len(g.shards)) {
		g.quiescentScan(limit)
	}
	for spins := 0; ; spins++ {
		if sig.epoch.Load() != ep || g.ndone.Load() {
			break
		}
		if g.aborted.Load() {
			g.waiting.Add(-1)
			panic("sim: peer shard failed")
		}
		if spins < sig.spin {
			continue
		}
		if spins < sig.spin+yieldBudget {
			runtime.Gosched()
			continue
		}
		sig.mu.Lock()
		sig.parked.Store(true)
		for sig.epoch.Load() == ep && !g.ndone.Load() && !g.aborted.Load() {
			sig.cond.Wait()
		}
		sig.parked.Store(false)
		sig.mu.Unlock()
	}
	g.waiting.Add(-1)
	prof.BarrierWait += time.Since(t0)
}

// quiescentScan runs when every shard is simultaneously blocked — the only
// situation where neighbor clocks alone cannot make progress. Under the
// scan mutex (re-verifying the all-blocked condition): if any ring still
// holds traffic, wake its consumer to drain it;
// otherwise fold the global minimum next-event time. Beyond the limit (or
// absent) ⇒ the run is complete; otherwise it becomes the quiescence
// floor gmin, licensing every shard's horizon up to gmin + its minimum
// in-edge lookahead — any future message originates at an event ≥ gmin.
func (g *Group) quiescentScan(limit time.Duration) {
	g.scanMu.Lock()
	defer g.scanMu.Unlock()
	// Generation snapshot BEFORE the all-blocked check: any wait entry the
	// commit guard must detect then bumps the generation strictly between
	// this load and the guard's re-load.
	gen0 := g.waitGen.Load()
	if g.ndone.Load() || g.waiting.Load() != int32(len(g.shards)) {
		return
	}
	pending := false
	for _, r := range g.exchanges {
		if r.ex.Pending() {
			pending = true
			g.notify(r.dst)
		}
	}
	if pending {
		return
	}
	m := noEvent
	for i := range g.nextAt {
		if v := g.nextAt[i].Load(); v < m {
			m = v
		}
	}
	// Re-verify all-blocked before committing. The entry check is only a
	// snapshot: a shard notified by an earlier publish may break out of its
	// wait concurrently with this scan, drain a ring, run a window (pushing
	// fresh cells the sweep above never saw), and even RE-ENTER the wait —
	// restoring waiting==n. The waiting re-load catches a shard still
	// mid-round (it decrements before touching any ring or clock); the
	// generation re-load catches the full escape/re-enter cycle, whose
	// entry bump lands strictly between gen0 and this load. If neither
	// changed, no shard left the wait during the scan, so the sweep and the
	// fold observed one frozen, consistent state. On abort the re-entering
	// shard's own waiting.Add(1)==n triggers a fresh scan, so no wakeup is
	// lost.
	if g.waiting.Load() != int32(len(g.shards)) || g.waitGen.Load() != gen0 {
		return
	}
	if m == noEvent || (limit >= 0 && m > int64(limit)) {
		g.ndone.Store(true)
		g.notifyAll()
		return
	}
	if m > g.gmin.Load() {
		g.gmin.Store(m)
		g.notifyAll()
		return
	}
	// m == gmin: the commit that set this floor already woke every shard,
	// and the floor makes the m-owner runnable (its horizon is at least
	// gmin + its min in-edge lookahead > m = its next event). This scan ran
	// in the post-commit transient, before the owner was scheduled; its
	// wakeup is in flight, so stay SILENT. Notifying here is not merely
	// redundant — it bumps this scanner's own epoch, making it break out of
	// its wait instantly, re-enter, and scan again: a self-sustaining hot
	// loop that starves the runnable shard of the CPU for a full quantum.
}
