package sim

import (
	"testing"
	"time"
)

// The BenchmarkEngine_* family tracks the engine's wall-clock fast path:
// steady-state event scheduling, timer cancellation, and the process
// context switch. All report allocations — the pooled event arena and the
// reusable wait records are supposed to make every one of these 0 allocs/op
// in steady state.

// BenchmarkEngine_ScheduleFire measures one-event-at-a-time schedule+fire
// throughput through the pooled arena (alloc, heap push, pop, recycle).
func BenchmarkEngine_ScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, fn)
		}
	}
	e.After(time.Microsecond, fn)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngine_ScheduleFireArg is the closure-free variant: a static
// callback with its state passed through the event's arg slot.
func BenchmarkEngine_ScheduleFireArg(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	type st struct {
		e *Engine
		n int
	}
	s := &st{e: e}
	var fn func(any)
	fn = func(a any) {
		s := a.(*st)
		s.n++
		if s.n < b.N {
			s.e.AfterArg(time.Microsecond, fn, s)
		}
	}
	e.AfterArg(time.Microsecond, fn, s)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngine_TimerCancel schedules far-future timers and cancels them
// immediately: the lazy-compaction path that keeps canceled entries from
// accumulating in the heap.
func BenchmarkEngine_TimerCancel(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(time.Duration(i)*time.Second, nop)
		tm.Cancel()
	}
	if e.PendingEvents() > 64 {
		b.Fatalf("canceled timers accumulated: %d pending", e.PendingEvents())
	}
}

// BenchmarkEngine_ProcContextSwitch bounces a bounded FIFO between two
// processes: each element is two blocking handoffs (full → put wakes get,
// empty → get wakes put), the simulator's equivalent of a context switch:
// per element, two resume events and four coroutine switches (engine → proc
// → engine, twice). ~360 ns/op on the 2-vCPU reference box; the two-channel
// goroutine handshake it replaced was ~0.9–1.1 µs.
func BenchmarkEngine_ProcContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	defer e.Shutdown()
	q := NewFIFO[int](1)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngine_SleepResume is one process sleeping in a tight loop with
// nothing else queued, so every sleep is taken in place: ~3–5 ns/op, against
// ~440 ns for the schedule-park-fire-resume round it stands for.
func BenchmarkEngine_SleepResume(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	defer e.Shutdown()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.Run()
}

// --- far-horizon scheduler: 4-ary heap vs hierarchical timer wheel ---

// benchScheduler measures steady-state schedule+fire throughput while a
// constant population of `pending` timers stays queued: every fired event
// re-arms itself with a jittered far deadline, so the structure holds
// `pending` entries throughout. The heap pays O(log pending) per
// operation; the wheel pays amortized O(1), which is the whole point of
// BenchmarkScheduler_*1M.
func benchScheduler(b *testing.B, newEngine func(int64) *Engine, pending int) {
	b.ReportAllocs()
	e := newEngine(1)
	const spread = 100 * time.Millisecond
	gap := spread / time.Duration(pending)
	if gap <= 0 {
		gap = 1
	}
	fired := 0
	x := uint64(1)
	var fn func(any)
	fn = func(any) {
		fired++
		x = x*6364136223846793005 + 1442695040888963407
		// Log-uniform re-arm horizon, 1µs .. ~65ms: a hot subset of timers
		// cycles on short deadlines while the bulk of the population parks
		// far out — the million-idle-timeouts shape the wheel exists for.
		d := time.Microsecond << ((x >> 32) % 17)
		e.AfterArg(d+time.Duration(x%1000), fn, nil)
	}
	for i := 0; i < pending; i++ {
		e.AfterArg(time.Duration(i+1)*gap, fn, nil)
	}
	b.ResetTimer()
	for fired < b.N {
		e.RunUntil(e.Now() + spread/64)
	}
}

func BenchmarkScheduler_Heap1k(b *testing.B)    { benchScheduler(b, newHeapOnly, 1_000) }
func BenchmarkScheduler_Wheel1k(b *testing.B)   { benchScheduler(b, New, 1_000) }
func BenchmarkScheduler_Heap100k(b *testing.B)  { benchScheduler(b, newHeapOnly, 100_000) }
func BenchmarkScheduler_Wheel100k(b *testing.B) { benchScheduler(b, New, 100_000) }
func BenchmarkScheduler_Heap1M(b *testing.B)    { benchScheduler(b, newHeapOnly, 1_000_000) }
func BenchmarkScheduler_Wheel1M(b *testing.B)   { benchScheduler(b, New, 1_000_000) }

// benchSchedulerCancel measures the arm-then-cancel timeout pattern that
// dominates the UAM/TCP data path: with `pending` idle timers parked far
// out, each op arms one more timeout and cancels it before it can fire
// (the common case — I/O completes first). The wheel cancels in O(1)
// (unlink and recycle, independent of population); the heap-only
// scheduler pays an O(log pending) sift on every arm plus an amortized
// O(pending) compaction sweep once canceled entries outnumber live ones.
func benchSchedulerCancel(b *testing.B, newEngine func(int64) *Engine, pending int) {
	b.ReportAllocs()
	e := newEngine(1)
	nop := func() {}
	for i := 0; i < pending; i++ {
		e.After(time.Hour+time.Duration(i), nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Minute+time.Duration(i&4095), nop).Cancel()
	}
}

func BenchmarkSchedulerCancel_Heap1k(b *testing.B)   { benchSchedulerCancel(b, newHeapOnly, 1_000) }
func BenchmarkSchedulerCancel_Wheel1k(b *testing.B)  { benchSchedulerCancel(b, New, 1_000) }
func BenchmarkSchedulerCancel_Heap100k(b *testing.B) { benchSchedulerCancel(b, newHeapOnly, 100_000) }
func BenchmarkSchedulerCancel_Wheel100k(b *testing.B) {
	benchSchedulerCancel(b, New, 100_000)
}
func BenchmarkSchedulerCancel_Heap1M(b *testing.B) { benchSchedulerCancel(b, newHeapOnly, 1_000_000) }
func BenchmarkSchedulerCancel_Wheel1M(b *testing.B) {
	benchSchedulerCancel(b, New, 1_000_000)
}
