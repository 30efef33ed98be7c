package sim

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

// orderCoverage counts the queue paths one checkEventOrder run took, so a
// test can tell that its schedules reached each of them.
type orderCoverage struct {
	heapCancels, wheelCancels, compactions int
	// arrivals whose (sched, index) key sorts before, inside or after the
	// events already pending at their instant
	arriveBefore, arriveInside, arriveAfter int
}

func (c *orderCoverage) add(o orderCoverage) {
	c.heapCancels += o.heapCancels
	c.wheelCancels += o.wheelCancels
	c.compactions += o.compactions
	c.arriveBefore += o.arriveBefore
	c.arriveInside += o.arriveInside
	c.arriveAfter += o.arriveAfter
}

// checkEventOrder runs the schedule data encodes on a fresh engine and
// checks that the events fired in the order of a sort of every (at, sched,
// seq) scheduled and not canceled: the sorted slice is the oracle. data is
// read two bytes to an operation — an opcode and its argument. A few
// operations run before the engine starts and each firing event runs the
// next one, so the queue is worked from inside the run as it is in a
// simulation: bursts at one instant, After(0), far timers for the wheel,
// cancels in heap and wheel (enough, in a row, to compact), and cross-shard
// arrivals whose sched lands anywhere among their instant's events.
func checkEventOrder(t testing.TB, newEngine func(int64) *Engine, data []byte) orderCoverage {
	t.Helper()
	type key struct {
		at, sched time.Duration
		seq       uint64
	}
	e := newEngine(1)
	defer e.Shutdown()
	var (
		keys     []key
		timers   []Timer // zero for arrivals, which cannot be canceled
		canceled []bool
		pending  []bool
		fired    []int
		cov      orderCoverage
		arrivals int
		pos      int
	)
	next := func() int {
		if pos >= len(data) {
			return -1
		}
		pos++
		return int(data[pos-1])
	}
	var step func() bool
	fire := func(arg any) {
		id := arg.(int)
		if !pending[id] {
			t.Fatalf("event %d fired, but it was canceled or has fired before", id)
		}
		pending[id] = false
		fired = append(fired, id)
		step()
	}
	record := func(k key, tm Timer) {
		keys = append(keys, k)
		timers = append(timers, tm)
		canceled = append(canceled, false)
		pending = append(pending, true)
	}
	local := func(tm Timer) { record(key{tm.ev.at, tm.ev.sched, tm.ev.seq}, tm) }
	step = func() bool {
		op, arg := next(), next()
		if arg < 0 {
			return false
		}
		now := e.Now()
		switch op % 5 {
		case 0: // a burst of up to 64 events at one of 16 instants
			at := now + time.Duration(arg%16)*100
			for i := 0; i <= arg/4; i++ {
				local(e.AtArg(at, fire, len(keys)))
			}
		case 1: // zero-delay callbacks
			for i := 0; i <= arg%4; i++ {
				id := len(keys)
				local(e.After(0, func() { fire(id) }))
			}
		case 2: // a far timer, resident in the wheel
			local(e.AtArg(now+time.Duration(arg+1)*3*time.Microsecond, fire, len(keys)))
		case 3: // cancel up to 64 pending timers
			for i, from := 0, next(); i <= arg%64 && from >= 0 && len(keys) > 0; i++ {
				id := from * len(keys) / 256
				for n := 0; n < len(keys) && !(pending[id] && timers[id].ev != nil); n++ {
					id = (id + 1) % len(keys)
				}
				if !pending[id] || timers[id].ev == nil {
					break
				}
				inWheel, before := timers[id].ev.wslot >= 0, e.ncanceled
				if !timers[id].Cancel() {
					t.Fatalf("Cancel of pending event %d reported not pending", id)
				}
				pending[id], canceled[id] = false, true
				switch {
				case inWheel:
					cov.wheelCancels++
				case e.ncanceled <= before:
					cov.heapCancels++
					cov.compactions++
				default:
					cov.heapCancels++
				}
			}
		case 4: // a cross-shard arrival at one of the burst instants
			at := now + time.Duration(arg%16+1)*100
			sched := now * time.Duration(max(next(), 0)) / 255
			k := key{at, sched, uint64(arrivals)}
			lt, gt := 0, 0
			for id, o := range keys {
				if pending[id] && o.at == at {
					if cmp.Or(cmp.Compare(o.sched, k.sched), cmp.Compare(o.seq, k.seq)) < 0 {
						lt++
					} else {
						gt++
					}
				}
			}
			switch {
			case lt == 0 && gt > 0:
				cov.arriveBefore++
			case lt > 0 && gt > 0:
				cov.arriveInside++
			case lt > 0:
				cov.arriveAfter++
			}
			e.ArriveArg(at, sched, arrivals, fire, len(keys))
			record(k, Timer{})
			arrivals++
		}
		return true
	}
	for i := 0; i < 8 && step(); i++ {
	}
	for {
		e.Run()
		if !step() {
			break
		}
	}
	e.Run()
	if n := e.PendingEvents(); n != 0 {
		t.Fatalf("%d events still pending after Run", n)
	}

	var want []int
	for id := range keys {
		if !canceled[id] {
			want = append(want, id)
		}
	}
	slices.SortFunc(want, func(a, b int) int {
		x, y := keys[a], keys[b]
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.sched, y.sched), cmp.Compare(x.seq, y.seq))
	})
	if len(fired) != len(want) {
		t.Fatalf("%d events fired, %d were scheduled and not canceled", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			a, b := keys[fired[i]], keys[want[i]]
			t.Fatalf("event %d fired %d-th with key %+v; the sort puts %d there, key %+v", fired[i], i, a, want[i], b)
		}
	}
	return cov
}

// orderSchedule is a seeded schedule for checkEventOrder: n bytes from a
// small LCG.
func orderSchedule(seed uint64, n int) []byte {
	x := seed
	b := make([]byte, n)
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// TestEventOrderMatchesSortedTwin holds the event queue — instant slots,
// their chains, the wheel's hand-over and compaction — to a sort of
// everything scheduled, on both the wheel engine and the heap-only one,
// and checks that the seeded schedules reach every path.
func TestEventOrderMatchesSortedTwin(t *testing.T) {
	for _, c := range []struct {
		name      string
		newEngine func(int64) *Engine
	}{{"wheel", New}, {"heap-only", newHeapOnly}} {
		t.Run(c.name, func(t *testing.T) {
			var cov orderCoverage
			for seed := uint64(1); seed <= 200; seed++ {
				cov.add(checkEventOrder(t, c.newEngine, orderSchedule(seed, 600)))
			}
			if cov.heapCancels == 0 || cov.compactions == 0 ||
				cov.arriveBefore == 0 || cov.arriveInside == 0 || cov.arriveAfter == 0 ||
				c.newEngine(1).wheel != nil && cov.wheelCancels == 0 {
				t.Fatalf("the schedules miss a path: %+v", cov)
			}
		})
	}
}

// TestPrependSiftsPastTwinSlot builds the one layout in which joining an
// instant moves its slot: a second slot for an instant under the first,
// and an arrival that sorts before both. The heap-only engine queues
// instants 1..21 ns as slots 0..20 in index order, so instant 6 sits at
// slot 5, out of the scan's reach; a second event for it misses hint and
// scan and becomes slot 21, slot 5's child; the arrival joins slot 21
// through the hint and must sift above slot 5. Later instants keep it
// from being the last slot, which a pop would re-sift anyway.
func TestPrependSiftsPastTwinSlot(t *testing.T) {
	e := newHeapOnly(1)
	var order []time.Duration
	fire := func(arg any) { order = append(order, arg.(time.Duration)) }
	for at := time.Duration(1); at <= 21; at++ {
		e.AtArg(at, fire, at)
	}
	e.AtArg(6, fire, time.Duration(-2))
	e.ArriveArg(6, 0, 0, fire, time.Duration(-1))
	for at := time.Duration(22); at <= 30; at++ {
		e.AtArg(at, fire, at)
	}
	if n := len(e.events.slots); n != 31 {
		t.Fatalf("layout: %d slots, want 31", n)
	}
	e.Run()
	want := []time.Duration{1, 2, 3, 4, 5, -1, 6, -2, 7}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("fired %v, want it to begin %v", order[:len(want)], want)
		}
	}
}

// FuzzEventOrder is TestEventOrderMatchesSortedTwin on arbitrary schedules.
func FuzzEventOrder(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(orderSchedule(seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 { // the oracle's bookkeeping is quadratic
			data = data[:256]
		}
		checkEventOrder(t, New, data)
		checkEventOrder(t, newHeapOnly, data)
	})
}
