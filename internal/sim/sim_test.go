package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

const us = time.Microsecond

func TestClockStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAfterOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.After(3*us, func() { got = append(got, 3) })
	e.After(1*us, func() { got = append(got, 1) })
	e.After(2*us, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*us {
		t.Fatalf("final time = %v, want 3µs", e.Now())
	}
}

func TestSameTimeFIFOOrder(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*us, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(1*us, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel reported not pending")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel reported pending")
	}
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestAtClampsPast(t *testing.T) {
	e := New(1)
	e.After(10*us, func() {
		e.At(2*us, func() {
			if e.Now() != 10*us {
				t.Errorf("past event fired at %v, want clamp to 10µs", e.Now())
			}
		})
	})
	e.Run()
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	var at1, at2 time.Duration
	e.Spawn("p", func(p *Proc) {
		at1 = p.Now()
		p.Sleep(7 * us)
		at2 = p.Now()
	})
	e.Run()
	if at1 != 0 || at2 != 7*us {
		t.Fatalf("times = %v, %v; want 0, 7µs", at1, at2)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2 * us)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1 * us)
		trace = append(trace, "b1")
		p.Sleep(2 * us)
		trace = append(trace, "b3")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	var c Cond
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Wait(&c)
			woken++
		})
	}
	e.After(1*us, func() { c.Signal() })
	e.After(2*us, func() {
		if woken != 1 {
			t.Errorf("woken = %d after one Signal, want 1", woken)
		}
		c.Broadcast()
	})
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d after the Broadcast, want all 3", woken)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	var c Cond
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Wait(&c)
			woken++
		})
	}
	e.After(1*us, func() { c.Broadcast() })
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestWaitTimeoutTimesOut(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	var c Cond
	var signaled bool
	var woke time.Duration
	e.Spawn("p", func(p *Proc) {
		signaled = p.WaitTimeout(&c, 5*us)
		woke = p.Now()
	})
	e.Run()
	if signaled {
		t.Fatal("WaitTimeout reported signal, want timeout")
	}
	if woke != 5*us {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
}

func TestWaitTimeoutSignaledFirst(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	var c Cond
	var signaled bool
	e.Spawn("p", func(p *Proc) {
		signaled = p.WaitTimeout(&c, 5*us)
	})
	e.After(2*us, func() { c.Signal() })
	e.Run()
	if !signaled {
		t.Fatal("WaitTimeout reported timeout, want signal")
	}
	if e.Now() != 2*us {
		// The signaled wake cancels the pending timeout, so the simulation
		// goes quiescent at the signal time instead of idling to 5µs.
		t.Fatalf("final time = %v, want 2µs", e.Now())
	}
}

func TestFIFOBlockingHandoff(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	q := NewFIFO[int](0)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(1 * us)
			q.Put(p, i*10)
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got = %v, want [10 20 30]", got)
	}
}

func TestFIFOBoundedBackpressure(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	q := NewFIFO[int](2)
	var produced, consumed int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i) // blocks once the 2-slot queue fills
			produced++
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * us)
			_ = q.Get(p)
			consumed++
		}
	})
	e.Run()
	if produced != 5 || consumed != 5 {
		t.Fatalf("produced=%d consumed=%d, want 5/5", produced, consumed)
	}
}

func TestFIFOTryPutOverflowDrops(t *testing.T) {
	q := NewFIFO[int](2)
	if !q.TryPut(1) || !q.TryPut(2) {
		t.Fatal("TryPut rejected with room available")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut accepted into full queue")
	}
	if q.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", q.Len())
	}
}

func TestFIFOTryGetEmpty(t *testing.T) {
	q := NewFIFO[string](0)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.TryPut("x")
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q, %v; want \"x\", true", v, ok)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := New(1)
	fired := 0
	e.After(1*us, func() { fired++ })
	e.After(10*us, func() { fired++ })
	at := e.RunUntil(5 * us)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if at != 5*us {
		t.Fatalf("RunUntil returned %v, want 5µs", at)
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("after Run fired = %d, want 2", fired)
	}
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	e := New(1)
	var c Cond
	cleaned := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(&c) // never signaled
	})
	e.Run()
	e.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Shutdown")
	}
}

func TestShutdownBeforeStart(t *testing.T) {
	e := New(1)
	ran := false
	e.Spawn("never", func(p *Proc) { ran = true })
	e.Shutdown() // proc never started; must not deadlock
	if ran {
		t.Fatal("process ran despite shutdown before start")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := New(42)
		defer e.Shutdown()
		rng := rand.New(rand.NewSource(42))
		var ts []time.Duration
		q := NewFIFO[int](4)
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(time.Duration(rng.Intn(100)) * us)
				q.Put(p, i)
			}
		})
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 50; i++ {
				_ = q.Get(p)
				ts = append(ts, p.Now())
			}
		})
		e.Run()
		return ts
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d, %d; want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNestedSpawnFromProc(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	childRan := false
	e.Spawn("parent", func(p *Proc) {
		e.Spawn("child", func(c *Proc) {
			c.Sleep(1 * us)
			childRan = true
		})
		p.Sleep(5 * us)
	})
	e.Run()
	if !childRan {
		t.Fatal("child spawned from process did not run")
	}
}

func TestWaitTimeoutCleansUpWaiters(t *testing.T) {
	// Timed-out waiters must not accumulate on the condition (a long
	// polling loop would otherwise leak entries).
	e := New(1)
	defer e.Shutdown()
	var c Cond
	e.Spawn("poller", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.WaitTimeout(&c, 1*us)
		}
	})
	e.Run()
	if n := len(c.waiters); n != 0 {
		t.Fatalf("%d stale waiters left on the condition", n)
	}
}

func TestCancelAfterFireReportsNotPending(t *testing.T) {
	e := New(1)
	tm := e.After(1*us, func() {})
	e.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after fire reported still-pending")
	}
}

func TestRunUntilNeverRewindsClock(t *testing.T) {
	e := New(1)
	e.After(10*us, func() {})
	e.Run()
	if got := e.RunUntil(2 * us); got != 10*us {
		t.Fatalf("RunUntil rewound the clock to %v", got)
	}
}

// TestSchedulerSteadyStateAllocs gates the zero-allocation contract of the
// steady-state scheduling path, with and without the wheel: schedule near
// (heap) and far (wheel), cancel, and fire — all through the pooled arena
// with no per-operation allocation once warm.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		newEngine func(int64) *Engine
	}{{"wheel", New}, {"heap-only", newHeapOnly}} {
		e := tc.newEngine(1)
		nop := func() {}
		// Warm the arena, heap slice and wheel slots to capacity.
		for i := 0; i < 256; i++ {
			e.After(time.Duration(i+1)*time.Millisecond, nop).Cancel()
			e.After(time.Duration(i+1)*time.Microsecond, nop)
		}
		e.Run()
		allocs := testing.AllocsPerRun(200, func() {
			e.After(time.Microsecond, nop)    // near horizon → heap
			e.After(50*time.Millisecond, nop) // far horizon → wheel
			tm := e.After(time.Second, nop)
			tm.Cancel() // wheel cancel: unlink + immediate recycle
			e.RunUntil(e.Now() + 100*time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}

// TestEventSize pins the event struct to 88 bytes, in the 96-byte allocator
// size class. Every pending event is one of these; past 96 bytes each would
// be in the 112-byte class.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 88 {
		t.Fatalf("sizeof(event) = %d, want 88", got)
	}
}

// TestEngineSize pins the engine to the 128-byte allocator size class: a
// sweep builds an engine per cluster (fig4 builds 54), and a 129th byte
// would put each in the 144-byte class.
func TestEngineSize(t *testing.T) {
	if got := unsafe.Sizeof(Engine{}); got != 128 {
		t.Fatalf("sizeof(Engine) = %d, want 128", got)
	}
}

// TestLocal: an engine has one value of each type asked for, zero at first,
// the same pointer ever after, and shares none with another engine.
func TestLocal(t *testing.T) {
	type scratch struct{ n int }
	type other struct{ s string }
	e, f := New(1), New(1)
	p := Local[scratch](e)
	if p.n != 0 {
		t.Fatalf("fresh value = %+v, want zero", *p)
	}
	p.n = 7
	if q := Local[scratch](e); q != p || q.n != 7 {
		t.Errorf("second lookup returned %p (%+v), want the first value %p", q, *q, p)
	}
	if o := Local[other](e); o.s != "" {
		t.Errorf("a second type's value = %+v, want zero", *o)
	}
	if Local[scratch](e) != p {
		t.Error("asking for a second type displaced the first")
	}
	if q := Local[scratch](f); q == p || q.n != 0 {
		t.Error("two engines share a value")
	}
	if s := e.NewShard(); Local[scratch](s) == p {
		t.Error("a shard engine shares its root's value")
	}
}
