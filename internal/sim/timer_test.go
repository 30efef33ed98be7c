package sim

import (
	"testing"
	"time"
)

// TestTimerCancelReuseAtSameTimestamp is the regression test for the pooled
// arena's generation check under lazy cancel compaction: canceling more
// than half the queue triggers a wholesale compaction that recycles the
// canceled entries; new timers scheduled at the *same* timestamp then reuse
// those exact event structs. A stale Timer handle held across the recycle
// must report not-pending and must not cancel the reincarnated event — the
// generation check wins over heap position every time.
func TestTimerCancelReuseAtSameTimestamp(t *testing.T) {
	e := New(1)
	const at = time.Millisecond
	const n = 100
	fired := make(map[int]bool)
	order := []int{}

	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = e.At(at, func() { fired[i] = true; order = append(order, i) })
	}
	// Cancel 80 of 100: compaction triggers as soon as canceled entries
	// outnumber live ones (needs ≥ 64 queued), well before the last Cancel.
	for i := 0; i < 80; i++ {
		if !timers[i].Cancel() {
			t.Fatalf("Cancel %d reported not-pending on a pending timer", i)
		}
	}
	if e.PendingEvents() >= n {
		t.Fatalf("compaction never ran: %d entries still queued", e.PendingEvents())
	}

	// Reuse: these allocations come out of the arena free list — the very
	// structs the canceled timers still point at — at the same timestamp.
	for i := 0; i < 80; i++ {
		i := i
		e.At(at, func() { fired[n+i] = true; order = append(order, n+i) })
	}
	// The stale handles point at recycled (and now re-armed) events. Their
	// generation is old: Cancel must be a no-op on the new events.
	for i := 0; i < 80; i++ {
		if timers[i].Cancel() {
			t.Fatalf("stale Cancel %d claimed to cancel a reincarnated event", i)
		}
	}
	// Canceling an already-canceled (or fired) timer again stays false.
	if timers[0].Cancel() {
		t.Fatal("double Cancel reported pending")
	}

	e.Run()
	if len(order) != 100 {
		t.Fatalf("%d events fired, want 100 (20 survivors + 80 reused)", len(order))
	}
	// Survivors fire first (older seq), in scheduling order; then the
	// reused timers in their scheduling order.
	for k := 0; k < 20; k++ {
		if order[k] != 80+k {
			t.Fatalf("position %d fired id %d, want survivor %d", k, order[k], 80+k)
		}
	}
	for k := 0; k < 80; k++ {
		if order[20+k] != n+k {
			t.Fatalf("position %d fired id %d, want reused %d", 20+k, order[20+k], n+k)
		}
	}
	for i := 80; i < n; i++ {
		if !fired[i] {
			t.Fatalf("survivor %d never fired", i)
		}
	}
}

// TestTimerCompactionPreservesSameTimestampOrder forces a compaction (which
// re-heapifies the live entries) in the middle of a same-timestamp batch
// and checks that the surviving events still fire in scheduling order.
func TestTimerCompactionPreservesSameTimestampOrder(t *testing.T) {
	e := New(1)
	const at = time.Millisecond
	var order []int
	var timers []Timer
	for i := 0; i < 128; i++ {
		i := i
		timers = append(timers, e.At(at, func() { order = append(order, i) }))
	}
	// Cancel every even-indexed timer: 64 canceled vs 64 live triggers the
	// lazy compaction threshold exactly once the count tips over.
	for i := 0; i < 128; i += 2 {
		timers[i].Cancel()
	}
	e.Run()
	if len(order) != 64 {
		t.Fatalf("%d events fired, want 64", len(order))
	}
	for k, id := range order {
		if id != 2*k+1 {
			t.Fatalf("position %d fired id %d, want %d (scheduling order)", k, id, 2*k+1)
		}
	}
}

// TestAfterZeroOrdering pins the After(0) contract: a zero-delay callback
// scheduled from within a callback fires at the same virtual time but after
// every event already queued for that instant, in scheduling order.
func TestAfterZeroOrdering(t *testing.T) {
	e := New(1)
	var order []string
	e.At(time.Microsecond, func() {
		order = append(order, "first")
		e.After(0, func() { order = append(order, "zero-a") })
		e.After(0, func() { order = append(order, "zero-b") })
	})
	e.At(time.Microsecond, func() { order = append(order, "second") })
	end := e.Run()
	want := []string{"first", "second", "zero-a", "zero-b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != time.Microsecond {
		t.Fatalf("After(0) advanced the clock: end = %v", end)
	}
}

// TestAfterZeroResumeOrdering pins the same-instant ordering between a
// process resume and a callback: resume events take their sequence number
// when Sleep runs, not when the process was spawned. Here the callback is
// queued for T before the process (started at t=0) calls Sleep, so at T the
// callback fires first — scheduling order, not creation order.
func TestAfterZeroResumeOrdering(t *testing.T) {
	e := New(1)
	var order []string
	e.Spawn("p", func(p *Proc) {
		p.Sleep(time.Microsecond) // resume seq assigned here, at t=0, after cb's
		order = append(order, "proc")
	})
	e.At(time.Microsecond, func() { order = append(order, "cb") })
	e.Run()
	if len(order) != 2 || order[0] != "cb" || order[1] != "proc" {
		t.Fatalf("order = %v, want [cb proc] (seq assigned at Sleep time)", order)
	}
}

// --- hierarchical timer wheel edge cases ---

// wheelOf returns the engine's wheel, skipping the test when the engine is
// heap-only.
func wheelOf(t *testing.T, e *Engine) *wheel {
	t.Helper()
	if e.wheel == nil {
		t.Fatal("engine built without a wheel")
	}
	return e.wheel
}

// TestWheelBucketAndCascadeBoundaries schedules events exactly on level-0
// tick boundaries and on the level-0→level-1 cascade boundary (tick 64,
// where the XOR level rule first promotes an event to a higher level) and
// pins exact firing times and (at, seq) order across the cascade.
func TestWheelBucketAndCascadeBoundaries(t *testing.T) {
	e := New(1)
	wheelOf(t, e)
	const tick0 = time.Duration(1) << granBits // 4096ns
	ats := []time.Duration{
		tick0 - 1,         // last instant of the current tick
		tick0,             // first instant of tick 1 (wheel level 0)
		tick0 + 1,         //
		63 * tick0,        // last level-0 slot from cur=0
		64*tick0 - 1,      //
		64 * tick0,        // cascade boundary: level 1 from cur=0
		64*tick0 + 1,      //
		64*64*tick0 - 1,   // last level-1 instant
		64 * 64 * tick0,   // level-2 boundary
		64*64*tick0 + 123, //
	}
	var fired []time.Duration
	for _, at := range ats {
		at := at
		e.At(at, func() {
			if e.Now() != at {
				t.Errorf("event for %v fired at %v", at, e.Now())
			}
			fired = append(fired, at)
		})
	}
	e.Run()
	if len(fired) != len(ats) {
		t.Fatalf("fired %d of %d events", len(fired), len(ats))
	}
	for i := range ats {
		if fired[i] != ats[i] {
			t.Fatalf("fire order %v, want %v", fired, ats)
		}
	}
}

// TestWheelHeapHandoffSameTimestampOrder pins (at, seq) ordering for events
// at the same timestamp when some are wheel-resident (scheduled far ahead)
// and some are heap-resident (scheduled from a callback inside the same
// tick): the handoff must preserve pure scheduling order.
func TestWheelHeapHandoffSameTimestampOrder(t *testing.T) {
	e := New(1)
	wheelOf(t, e)
	const tick0 = time.Duration(1) << granBits
	T := 2 * tick0 // tick 2: far enough to start wheel-resident
	var order []string
	e.At(T, func() {
		order = append(order, "wheel-first")
		// Scheduled at the current instant from inside the tick: the wheel
		// frontier has advanced to this tick, so these go straight to the
		// heap — same timestamp, later seq.
		e.At(T, func() { order = append(order, "heap-same-at") })
		// Same tick, later instant: still heap-resident.
		e.At(T+tick0-1, func() { order = append(order, "heap-same-tick") })
		// Next tick: wheel again (heap→wheel handoff).
		e.At(T+tick0, func() { order = append(order, "wheel-next-tick") })
	})
	e.At(T, func() { order = append(order, "wheel-second") })
	e.Run()
	want := []string{"wheel-first", "wheel-second", "heap-same-at", "heap-same-tick", "wheel-next-tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelCancelBypassesCompaction pins the wheel cancel contract: a
// wheel-resident cancel unlinks and recycles immediately (PendingEvents
// drops at once, no compaction debt), and a heap compaction triggered by
// near-horizon cancels leaves wheel-resident entries untouched.
func TestWheelCancelBypassesCompaction(t *testing.T) {
	e := New(1)
	wheelOf(t, e)
	const tick0 = time.Duration(1) << granBits

	// 1000 far-horizon timers, all canceled: the wheel must shed them
	// immediately — no deferred half-dead population.
	far := make([]Timer, 1000)
	for i := range far {
		far[i] = e.After(time.Duration(i+2)*tick0, func() { t.Error("canceled wheel timer fired") })
	}
	for i := range far {
		if !far[i].Cancel() {
			t.Fatalf("wheel Cancel %d reported not-pending", i)
		}
	}
	if n := e.PendingEvents(); n != 0 {
		t.Fatalf("wheel cancels left %d pending events (no immediate recycle)", n)
	}

	// Mix: ≥64 heap-resident (same-tick) timers plus wheel-resident ones.
	// Canceling most of the heap population trips the lazy compaction;
	// wheel entries must survive it and fire in order.
	var order []int
	near := make([]Timer, 100)
	for i := range near {
		i := i
		near[i] = e.After(time.Duration(i+1), func() { order = append(order, i) }) // sub-tick: heap
	}
	e.After(5*tick0, func() { order = append(order, 1000) }) // wheel
	for i := 0; i < 80; i++ {
		near[i].Cancel()
	}
	if n := e.PendingEvents(); n >= 101 {
		t.Fatalf("compaction never ran: %d entries queued", n)
	}
	e.Run()
	if len(order) != 21 {
		t.Fatalf("fired %d events, want 21 (20 heap survivors + 1 wheel)", len(order))
	}
	for k := 0; k < 20; k++ {
		if order[k] != 80+k {
			t.Fatalf("position %d fired id %d, want %d", k, order[k], 80+k)
		}
	}
	if order[20] != 1000 {
		t.Fatalf("wheel timer fired out of order: %v", order)
	}
}

// TestAfterZeroSelfScheduling pins After(0) self-scheduling: a callback
// that re-arms itself with zero delay runs again at the same virtual
// instant (after already-queued same-instant events), and the clock never
// advances.
func TestAfterZeroSelfScheduling(t *testing.T) {
	e := New(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			e.After(0, step)
		}
	}
	e.At(time.Microsecond, step)
	end := e.Run()
	if count != 5 {
		t.Fatalf("self-scheduling ran %d times, want 5", count)
	}
	if end != time.Microsecond {
		t.Fatalf("After(0) self-scheduling advanced the clock to %v", end)
	}
}

// TestSchedulerDifferentialFiringOrder drives an identical seeded
// schedule/cancel/sleep/timed-wait workload through a heap-only and a wheel
// engine and asserts the observable firing sequences, end times and step
// counts are identical — the sim-level heap-equivalence check backing the
// golden suite. The timed waits reproduce the churn the open-loop serve
// workload puts on the queue (unet.Endpoint.RecvTimeout under UAM): many
// WaitTimeout calls against one deadline, each timeout canceled by a
// signaled wake — unlinked from the wheel while far, left for compaction
// once heap-resident — and only the last left to fire.
func TestSchedulerDifferentialFiringOrder(t *testing.T) {
	runIt := func(newEngine func(int64) *Engine) ([]int, time.Duration, uint64) {
		e := newEngine(1)
		var order []int
		var timers []Timer
		// A deterministic pseudo-random-ish spread from a tiny LCG (no
		// wall-clock, no global rand): mixes sub-tick, same-tick, far-wheel
		// and cascade-crossing deadlines, plus cancels.
		x := uint64(12345)
		next := func(mod int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int((x >> 33) % uint64(mod))
		}
		for i := 0; i < 500; i++ {
			i := i
			at := time.Duration(next(1 << 22))
			timers = append(timers, e.At(at, func() { order = append(order, i) }))
		}
		for i := 0; i < 500; i += 3 {
			timers[i].Cancel()
		}
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(time.Duration(next(1 << 18)))
				order = append(order, 10_000+i)
			}
		})
		// Four receivers wait out 1 ms retransmit deadlines on their own
		// conditions while a signaler wakes them at scattered instants: most
		// waits end signaled, well before the deadline, and the next wait
		// arms a fresh timeout for the remainder.
		conds := make([]Cond, 4)
		for w := range conds {
			w := w
			e.Spawn("receiver", func(p *Proc) {
				for ep := 0; ep < 12; ep++ {
					deadline := p.Now() + time.Millisecond
					for wakes := 0; ; wakes++ {
						if !p.WaitTimeout(&conds[w], deadline-p.Now()) {
							order = append(order, 20_000+100*w+ep)
							break
						}
						order = append(order, 30_000+100*w+ep)
						if wakes == ep%5 {
							break // the episode ends early
						}
					}
					p.Sleep(time.Duration(next(1 << 16)))
				}
			})
		}
		var signal func()
		signals := 0
		signal = func() {
			conds[next(len(conds))].Signal()
			if signals++; signals < 400 {
				e.After(time.Duration(next(1<<17)), signal)
			}
		}
		e.After(0, signal)
		end := e.Run()
		steps := e.Steps()
		e.Shutdown()
		return order, end, steps
	}
	ho, he, hs := runIt(newHeapOnly)
	wo, we, ws := runIt(New)
	if he != we || hs != ws {
		t.Fatalf("virtual end / steps differ: heap-only %v / %d, wheel %v / %d", he, hs, we, ws)
	}
	if len(ho) != len(wo) {
		t.Fatalf("firing counts differ: heap-only=%d wheel=%d", len(ho), len(wo))
	}
	timeouts, signaled := 0, 0
	for i := range ho {
		if ho[i] != wo[i] {
			t.Fatalf("firing order diverges at %d: heap-only=%d wheel=%d", i, ho[i], wo[i])
		}
		switch {
		case ho[i] >= 30_000:
			signaled++
		case ho[i] >= 20_000:
			timeouts++
		}
	}
	if timeouts == 0 || signaled < 50 {
		t.Fatalf("timed-wait churn too thin to mean anything: %d timeouts, %d signaled wakes", timeouts, signaled)
	}
}
