package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// --- in-place sleep: same (at, seq) order, Steps and clock as parking ---

func TestSleepYieldsToSameTimestampEvent(t *testing.T) {
	// The wake-up must be strictly before the queue head to be taken in
	// place: an event already queued for the same instant has the lower
	// sequence number and fires first.
	e := New(1)
	defer e.Shutdown()
	var order []string
	e.Spawn("s", func(p *Proc) {
		e.After(5*us, func() { order = append(order, "callback") })
		p.Sleep(5 * us)
		order = append(order, "sleeper")
		e.After(0, func() { order = append(order, "same-time") })
		p.Sleep(0)
		order = append(order, "yielded")
		p.Sleep(0) // nothing queued at all: still one step, no clock motion
	})
	end := e.Run()
	if want := []string{"callback", "sleeper", "same-time", "yielded"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	// start, callback, resume, same-time, resume, Sleep(0).
	if e.Steps() != 6 || end != 5*us {
		t.Fatalf("Steps = %d, end = %v; want 6 steps ending at 5µs", e.Steps(), end)
	}
}

func TestSleepBehindDeadQueueHead(t *testing.T) {
	// A canceled timer at the queue head — canceled by its owner, or by
	// WaitTimeout on a signaled wake — is not worth telling apart from a live
	// one: the sleeper parks, the engine discards the dead entry without a
	// step, and order and counts are what they would be had the entry never
	// existed.
	for _, tc := range []struct {
		name string
		dead func(e *Engine, p *Proc) // leaves a dead entry queued at now+3µs
	}{
		{"canceled", func(e *Engine, p *Proc) {
			e.After(3*us, func() { panic("canceled timer fired") }).Cancel()
		}},
		{"signaled wait", func(e *Engine, p *Proc) {
			var c Cond
			e.After(0, c.Signal)
			if !p.WaitTimeout(&c, 3*us) {
				panic("WaitTimeout timed out")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			defer e.Shutdown()
			var order []string
			var base uint64
			e.Spawn("s", func(p *Proc) {
				tc.dead(e, p)
				base = e.Steps()
				e.After(5*us, func() { order = append(order, "callback") })
				p.Sleep(5 * us)
				order = append(order, fmt.Sprint("sleeper@", e.Now()))
				p.Sleep(us) // queue empty again: in place
			})
			end := e.Run()
			if want := []string{"callback", "sleeper@5µs"}; !slices.Equal(order, want) {
				t.Fatalf("order = %v, want %v", order, want)
			}
			if got := e.Steps() - base; got != 3 || end != 6*us {
				t.Fatalf("%d steps after the dead entry, end = %v; want 3 (callback, resume, sleep) ending at 6µs", got, end)
			}
		})
	}
}

func TestSleepNeverPassesRunUntilLimit(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	var wakes []time.Duration
	e.Spawn("s", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10 * us)
			wakes = append(wakes, e.Now())
		}
	})
	if now := e.RunUntil(25 * us); now != 25*us {
		t.Fatalf("RunUntil(25µs) returned %v", now)
	}
	if want := []time.Duration{10 * us, 20 * us}; !slices.Equal(wakes, want) {
		t.Fatalf("wakes by 25µs = %v, want %v", wakes, want)
	}
	// The limit is inclusive: a wake-up exactly at it is inside the window.
	e.RunUntil(40 * us)
	if want := []time.Duration{10 * us, 20 * us, 30 * us, 40 * us}; !slices.Equal(wakes, want) {
		t.Fatalf("wakes by 40µs = %v, want %v", wakes, want)
	}
	if e.Steps() != 5 { // start + four wake-ups, however each was taken
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}
}

// sleepScript is a workload mixing every blocking primitive with timers,
// cancels and timed waits, on whole-microsecond times. Its
// last phase is a lone sleeper: nothing else queued, every sleep in place.
func sleepScript(e *Engine, log *[]string) {
	rec := func(what string) { *log = append(*log, fmt.Sprintf("%s@%v", what, e.Now())) }
	rng := rand.New(rand.NewSource(7))
	rnd := func(n int) time.Duration { return time.Duration(1+rng.Intn(n)) * us }
	q := NewFIFO[int](2)
	var c Cond
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Sleep(rnd(5))
			q.Put(p, i)
			rec("put")
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 40; i++ {
			rec(fmt.Sprint("get", q.Get(p)))
			p.Sleep(rnd(7))
			if i%5 == 0 {
				c.Signal()
			}
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 20; i++ {
			rec(fmt.Sprint("wait", p.WaitTimeout(&c, 9*us)))
			p.Sleep(2 * us)
			p.Sleep(0)
		}
	})
	e.Spawn("timers", func(p *Proc) {
		for i := 0; i < 30; i++ {
			tm := e.After(rnd(4), func() { rec("timer") })
			p.Sleep(rnd(6))
			if i%3 == 0 {
				tm.Cancel()
			}
			rec("timers")
		}
	})
	e.Spawn("lone", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 50; i++ {
			p.Sleep(3 * us)
			rec("lone")
		}
	})
}

func TestInPlaceSleepMatchesParkedTwin(t *testing.T) {
	// The twin runs the same script beside a 1 µs ticker, so a wake-up is
	// never strictly before the queue head and every Sleep(d > 0) parks. The
	// script's events must fire in the same order at the same times, and
	// once the ticker's own events are taken out, Steps and the sequence
	// numbers consumed must be equal: an in-place sleep is one sequence
	// number and one step, like the resume event it stands for.
	for _, newEngine := range []func(int64) *Engine{New, newHeapOnly} {
		kind := "wheel"
		if newEngine(0).wheel == nil {
			kind = "heap-only"
		}
		var fast, slow []string
		a := newEngine(7)
		sleepScript(a, &fast)
		a.Run()
		a.Shutdown()

		b := newEngine(7)
		var ticks uint64
		var tick func()
		tick = func() {
			ticks++
			if b.Now() < 2*time.Millisecond {
				b.After(us, tick)
			}
		}
		b.After(0, tick)
		sleepScript(b, &slow)
		b.Run()
		b.Shutdown()

		if len(fast) < 40+40+20+30+50 { // puts, gets, waits, timers, lone; plus the timer callbacks that beat their cancel
			t.Fatalf("%s engine: script logged only %d events", kind, len(fast))
		}
		if !slices.Equal(fast, slow) {
			for i := range fast {
				if i >= len(slow) || fast[i] != slow[i] {
					t.Fatalf("%s engine: traces diverge at %d: in-place %q, parked %v", kind, i, fast[i], slow[i:min(i+1, len(slow))])
				}
			}
			t.Fatalf("%s engine: parked twin logged %d extra events", kind, len(slow)-len(fast))
		}
		if a.Steps() != b.Steps()-ticks || a.seq != b.seq-ticks {
			t.Fatalf("%s engine: in-place %d steps / %d seqs, parked twin %d / %d after removing %d ticks",
				kind, a.Steps(), a.seq, b.Steps()-ticks, b.seq-ticks, ticks)
		}
	}
}

func TestShardSleepParksAtWindowStop(t *testing.T) {
	// A sleeper on shard 1 has an empty local queue, so every sleep would be
	// in place were it not for the window stop: cross-shard arrivals land in
	// its future only as far as the lookahead lets it run. Its log must be
	// the serial run's.
	const flight = 10 * us
	script := func(src, dst *Engine, send func(at time.Duration, fn func()), log *[]string) {
		dst.Spawn("sleeper", func(p *Proc) {
			p.Sleep(time.Nanosecond) // keep off the arrivals' whole microseconds
			for i := 0; i < 100; i++ {
				p.Sleep(7 * us)
				*log = append(*log, fmt.Sprint("wake@", dst.Now()))
			}
		})
		for i := 1; i <= 30; i++ {
			at := time.Duration(i) * 20 * us
			src.At(at, func() {
				send(at+flight, func() { *log = append(*log, fmt.Sprint("arrival@", dst.Now())) })
			})
		}
	}
	var serial []string
	e := New(1)
	script(e, e, func(at time.Duration, fn func()) { e.At(at, fn) }, &serial)
	e.Run()
	e.Shutdown()
	if len(serial) != 130 {
		t.Fatalf("serial run logged %d events, want 130", len(serial))
	}
	root, s1, toS1, _ := ringPair(flight)
	var sharded []string
	script(root, s1, toS1.send, &sharded)
	root.Run()
	if !slices.Equal(sharded, serial) {
		t.Fatalf("shard 1's log differs from the serial run:\n%v\n%v", sharded, serial)
	}
	if root.Steps()+s1.Steps() != e.Steps() {
		t.Fatalf("%d + %d steps, serial %d", root.Steps(), s1.Steps(), e.Steps())
	}
	root.Shutdown()
}

// --- SleepTo: a handler sleeps through the slots a process would ---

// sleeperStep is one turn of a scripted sleeper: at each continuation it
// logs the clock, schedules a foreign event `foreign` from now (none if
// negative) and sleeps `sleep`.
type sleeperStep struct{ sleep, foreign time.Duration }

// procSleeper runs the script as a process on Proc.Sleep.
func procSleeper(e *Engine, steps []sleeperStep, log *[]string) (entries *int) {
	entries = new(int)
	e.Spawn("sleeper", func(p *Proc) {
		for i, st := range steps {
			*log = append(*log, fmt.Sprint("cont", i, "@", e.Now()))
			if st.foreign >= 0 {
				e.After(st.foreign, func() { *log = append(*log, fmt.Sprint("foreign", i, "@", e.Now())) })
			}
			p.Sleep(st.sleep)
		}
		*log = append(*log, fmt.Sprint("end@", e.Now()))
	})
	return entries
}

// handlerSleeper runs the same script as a re-entrant event handler on
// SleepTo, and counts how many events entered it.
func handlerSleeper(e *Engine, steps []sleeperStep, log *[]string) (entries *int) {
	entries = new(int)
	i, asleep := 0, false
	var step func(any)
	step = func(any) {
		*entries++
		for ; i < len(steps); i++ {
			if !asleep {
				st, turn := steps[i], i
				*log = append(*log, fmt.Sprint("cont", turn, "@", e.Now()))
				if st.foreign >= 0 {
					e.After(st.foreign, func() { *log = append(*log, fmt.Sprint("foreign", turn, "@", e.Now())) })
				}
				asleep = true
				if !e.SleepTo(e.Now()+st.sleep, step, nil) {
					return
				}
			}
			asleep = false
		}
		*log = append(*log, fmt.Sprint("end@", e.Now()))
	}
	e.AtArg(e.Now(), step, nil) // Spawn's start event
	return entries
}

func TestSleepToMatchesProcSleep(t *testing.T) {
	// The same script of sleeps, run once as a process and once as a handler,
	// beside the same foreign events: every foreign event fires in the same
	// order, every continuation sees the same clock, and Steps and the
	// sequence numbers consumed are equal — so a model moved from Proc.Sleep
	// to SleepTo moves nothing else.
	type foreign struct {
		at     time.Duration
		cancel bool
	}
	for _, tc := range []struct {
		name    string
		steps   []sleeperStep
		foreign []foreign
		entries int // events that enter the handler: 1 + the sleeps that queue
	}{
		{"in place", []sleeperStep{{5 * us, -1}, {3 * us, -1}, {0, -1}, {us, -1}}, nil, 1},
		{"queued", []sleeperStep{{5 * us, 2 * us}, {3 * us, -1}, {4 * us, us}, {4 * us, 5 * us}}, nil, 3},
		// A head at the wake-up's own instant was scheduled first and fires
		// first, whether the sleeper scheduled it or someone else did.
		{"same instant", []sleeperStep{{5 * us, 5 * us}, {3 * us, -1}, {2 * us, -1}}, []foreign{{at: 10 * us}}, 3},
		// A canceled head is not told apart from a live one: the sleep queues.
		{"canceled head", []sleeperStep{{5 * us, -1}, {5 * us, -1}}, []foreign{{at: 3 * us, cancel: true}}, 2},
		{"mixed", []sleeperStep{{0, 0}, {7 * us, 3 * us}, {us, -1}, {us, us}, {10 * us, 4 * us}, {0, -1}, {2 * us, 2 * us}},
			[]foreign{{at: 7 * us}, {at: 8 * us}, {at: 9 * us, cancel: true}, {at: 15 * us}, {at: 40 * us}}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sleeper func(*Engine, []sleeperStep, *[]string) *int) (log []string, e *Engine, entries int) {
				e = New(1)
				defer e.Shutdown()
				for i, f := range tc.foreign {
					tm := e.At(f.at, func() { log = append(log, fmt.Sprint("fixed", i, "@", e.Now())) })
					if f.cancel {
						tm.Cancel()
					}
				}
				n := sleeper(e, tc.steps, &log)
				e.Run()
				return log, e, *n
			}
			want, pe, _ := run(procSleeper)
			got, he, entries := run(handlerSleeper)
			if !slices.Equal(got, want) {
				t.Fatalf("handler trace differs from the process's:\n%v\n%v", got, want)
			}
			if he.Steps() != pe.Steps() || he.seq != pe.seq || he.Now() != pe.Now() {
				t.Fatalf("handler: %d steps / seq %d / end %v; process: %d / %d / %v",
					he.Steps(), he.seq, he.Now(), pe.Steps(), pe.seq, pe.Now())
			}
			if entries != tc.entries {
				t.Fatalf("%d events entered the handler, want %d", entries, tc.entries)
			}
		})
	}
}

func TestShardSleepToQueuesAtWindowStop(t *testing.T) {
	// TestShardSleepParksAtWindowStop's fixture with the sleeper as a handler:
	// shard 1's queue is empty, so only the window stop keeps a SleepTo from
	// running past cross-shard arrivals still to land. Its log must be the
	// process's on the same group, and the serial handler's.
	const flight = 10 * us
	steps := []sleeperStep{{time.Nanosecond, -1}} // keep off the arrivals' whole microseconds
	for i := 0; i < 100; i++ {
		steps = append(steps, sleeperStep{7 * us, -1})
	}
	arrivals := func(src, dst *Engine, send func(at time.Duration, fn func()), log *[]string) {
		for i := 1; i <= 30; i++ {
			at := time.Duration(i) * 20 * us
			src.At(at, func() {
				send(at+flight, func() { *log = append(*log, fmt.Sprint("arrival@", dst.Now())) })
			})
		}
	}
	var serial []string
	e := New(1)
	handlerSleeper(e, steps, &serial)
	arrivals(e, e, func(at time.Duration, fn func()) { e.At(at, fn) }, &serial)
	e.Run()
	e.Shutdown()
	if len(serial) != len(steps)+1+30 {
		t.Fatalf("serial run logged %d events, want %d", len(serial), len(steps)+1+30)
	}
	for _, sleeper := range []func(*Engine, []sleeperStep, *[]string) *int{procSleeper, handlerSleeper} {
		root, s1, toS1, _ := ringPair(flight)
		var sharded []string
		sleeper(s1, steps, &sharded)
		arrivals(root, s1, toS1.send, &sharded)
		root.Run()
		if !slices.Equal(sharded, serial) {
			t.Fatalf("shard 1's log differs from the serial run:\n%v\n%v", sharded, serial)
		}
		if root.Steps()+s1.Steps() != e.Steps() {
			t.Fatalf("%d + %d steps, serial %d", root.Steps(), s1.Steps(), e.Steps())
		}
		root.Shutdown()
	}
}

// --- shutdown ---

func TestShutdownStopsEveryCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(1)
	var c Cond
	var unwound []string
	spawn := func(name string, body func(p *Proc)) {
		e.Spawn(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			body(p)
		})
	}
	spawn("blocked", func(p *Proc) { p.Wait(&c) })
	spawn("sleeping", func(p *Proc) { p.Sleep(time.Hour) })
	spawn("finished", func(p *Proc) { p.Sleep(us) })
	e.RunUntil(time.Millisecond)
	if n := runtime.NumGoroutine(); n != base+2 {
		t.Fatalf("%d goroutines with two live processes, want %d", n, base+2)
	}
	spawn("never started", func(p *Proc) { t.Error("process started after its last Run") })
	e.Shutdown()
	slices.Sort(unwound)
	if want := []string{"blocked", "finished", "sleeping"}; !slices.Equal(unwound, want) {
		t.Fatalf("deferred functions ran for %v, want %v", unwound, want)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after Shutdown, want the baseline %d", n, base)
	}
}

func TestShutdownDeferredSleepParks(t *testing.T) {
	// Run's window never ends and the queue is empty, so a Sleep in a
	// deferred function would qualify to run on in place; during the unwind
	// it must park instead, which ends the process.
	e := New(1)
	var c Cond
	unwinding, slept := false, false
	e.Spawn("resleeper", func(p *Proc) {
		defer func() {
			unwinding = true
			p.Sleep(us)
			slept = true
		}()
		p.Wait(&c)
	})
	e.Run()
	e.Shutdown()
	if !unwinding || slept {
		t.Fatalf("deferred function ran: %v, slept through Shutdown: %v", unwinding, slept)
	}
}

// --- panics ---

func TestProcPanicSurfacesInRun(t *testing.T) {
	e := New(1)
	cleaned := false
	e.Spawn("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	e.Spawn("h3/app", func(p *Proc) {
		p.Sleep(us)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != `sim: process "h3/app" panicked: boom` {
				t.Fatalf("Run panicked with %v", r)
			}
		}()
		e.Run()
		t.Fatal("Run returned despite the process panic")
	}()
	e.Shutdown()
	if !cleaned {
		t.Fatal("Shutdown after a process panic did not unwind the other process")
	}
}

func TestShardProcPanicAborts(t *testing.T) {
	root, s1, toS1, toRoot := ringPair(us)
	// Keep both shards exchanging so the healthy one is waiting on the
	// other when it dies.
	for i := 1; i <= 100; i++ {
		at := time.Duration(i) * us
		root.At(at, func() { toS1.send(root.Now()+us, func() {}) })
		s1.At(at, func() { toRoot.send(s1.Now()+us, func() {}) })
	}
	cleaned := false
	root.Spawn("bystander", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(time.Hour)
	})
	s1.Spawn("h1/app", func(p *Proc) {
		p.Sleep(50 * us)
		panic("boom")
	})
	msg := mustPanic(t, "group run", func() { root.Run() })
	if !strings.Contains(msg, `sim: process "h1/app" panicked: boom`) {
		t.Fatalf("group run panicked with %q", msg)
	}
	root.Shutdown()
	if !cleaned {
		t.Fatal("Shutdown after the abort did not unwind the other shard's process")
	}
}
