package sim

import (
	"runtime"
	"sync"
	"testing"
)

func TestSPSCWraparound(t *testing.T) {
	q := NewSPSC[int](8)
	if q.Cap() != 8 {
		t.Fatalf("Cap() = %d, want 8", q.Cap())
	}
	// Push/pop more than the capacity so head and tail wrap several times.
	next := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < q.Cap(); i++ {
			q.Push(next + i)
		}
		if q.Len() != q.Cap() {
			t.Fatalf("round %d: Len() = %d after %d pushes", round, q.Len(), q.Cap())
		}
		for i := 0; i < q.Cap(); i++ {
			v, ok := q.Pop()
			if !ok || v != next+i {
				t.Fatalf("round %d: Pop() = %d,%v, want %d,true", round, v, ok, next+i)
			}
		}
		next += q.Cap()
	}
	if q.Cap() != 8 {
		t.Fatalf("Cap() = %d after wrapping a ring that never filled past 8, want 8", q.Cap())
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatalf("Pop() on empty ring returned ok %v, Len() = %d", ok, q.Len())
	}
	if q.Pending() {
		t.Fatal("Pending() true on empty ring")
	}
}

func TestSPSCConcurrentFIFO(t *testing.T) {
	// 20 000 messages through a 16-entry first ring: the producer outruns
	// the consumer, so the ring grows under it while it pops.
	q := NewSPSC[uint64](16)
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; i++ {
			q.Push(i)
		}
	}()
	var got uint64
	for got < total {
		v, ok := q.Pop()
		if !ok {
			runtime.Gosched() // single-core boxes need the producer scheduled
			continue
		}
		if v != got {
			t.Fatalf("Pop() = %d, want %d (FIFO violated)", v, got)
		}
		got++
	}
	wg.Wait()
	if q.Pending() {
		t.Fatal("Pending() true after the last message was popped")
	}
}

func TestSPSCFullRingGrows(t *testing.T) {
	// Two doublings while the consumer is still in the first ring: every
	// push is poppable at once, in order, across both hand-overs.
	q := NewSPSC[int](8)
	next := 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.Push(next)
			next++
		}
	}
	want := 0
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if v, ok := q.Pop(); !ok || v != want {
				t.Fatalf("Pop() = %d,%v, want %d,true", v, ok, want)
			}
			want++
		}
	}
	push(8)
	pop(2) // the consumer is mid-ring when the producer moves on
	push(2)
	if q.Cap() != 8 {
		t.Fatalf("Cap() = %d with the first ring exactly full, want 8", q.Cap())
	}
	push(1)
	if q.Cap() != 16 {
		t.Fatalf("Cap() = %d after one overflow, want 16", q.Cap())
	}
	push(15) // fills the second ring: the consumer holds none of its slots
	push(1)
	if q.Cap() != 32 {
		t.Fatalf("Cap() = %d after two overflows, want 32", q.Cap())
	}
	push(5)
	pop(next - want)
	if _, ok := q.Pop(); ok || q.Pending() {
		t.Fatal("queue not empty after popping everything pushed")
	}
	// At its high-water mark the queue wraps in place: filling and draining
	// the 32-entry ring allocates nothing and links nothing.
	if avg := testing.AllocsPerRun(20, func() { push(32); pop(32) }); avg != 0 {
		t.Fatalf("fill and drain at the high-water mark: %v allocs/run, want 0", avg)
	}
	if q.Cap() != 32 {
		t.Fatalf("Cap() = %d after wrapping at the high-water mark, want 32", q.Cap())
	}
}

// TestSPSCSingleProducerAssertion checks the ownership tripwire: a second
// concurrent producer (or consumer) must panic rather than corrupt the
// ring silently.
func TestSPSCSingleProducerAssertion(t *testing.T) {
	q := NewSPSC[int](8)
	// Simulate a producer caught mid-Push by setting the guard, as a second
	// goroutine's entry would observe it.
	q.inPush.Store(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second producer Push did not panic")
			}
		}()
		q.Push(1)
	}()
	q.inPush.Store(false)
	q.inPop.Store(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second consumer Pop did not panic")
			}
		}()
		q.Pop()
	}()
}
