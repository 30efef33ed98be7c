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
			if !q.Push(next + i) {
				t.Fatalf("round %d: Push(%d) spilled with ring not full", round, next+i)
			}
		}
		for i := 0; i < q.Cap(); i++ {
			v, ok := q.Pop()
			if !ok || v != next+i {
				t.Fatalf("round %d: Pop() = %d,%v, want %d,true", round, v, ok, next+i)
			}
		}
		next += q.Cap()
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop() on empty ring returned ok")
	}
	if q.Pending() {
		t.Fatal("Pending() true on empty ring")
	}
}

func TestSPSCConcurrentFIFO(t *testing.T) {
	q := NewSPSC[uint64](16)
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; i++ {
			q.Push(i) // ring or spill; either way enqueued in order
		}
		for !q.FlushSpill() {
			runtime.Gosched() // single-core boxes need the consumer scheduled
		}
	}()
	var got uint64
	for got < total {
		v, ok := q.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != got {
			t.Fatalf("Pop() = %d, want %d (FIFO violated)", v, got)
		}
		got++
	}
	wg.Wait()
}

func TestSPSCFullRingSpills(t *testing.T) {
	q := NewSPSC[int](8)
	for i := 0; i < q.Cap(); i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) spilled before the ring filled", i)
		}
	}
	// The ring is full: further pushes must go to the producer-private
	// spill, invisible to the consumer until flushed.
	for i := q.Cap(); i < q.Cap()+5; i++ {
		if q.Push(i) {
			t.Fatalf("Push(%d) reported ring success on a full ring", i)
		}
	}
	if q.SpillLen() != 5 {
		t.Fatalf("SpillLen() = %d, want 5", q.SpillLen())
	}
	if v, ok := q.SpillHead(); !ok || v != q.Cap() {
		t.Fatalf("SpillHead() = %d,%v, want %d,true", v, ok, q.Cap())
	}
	// Drain two, flush: two spilled entries move into the ring, in order.
	for i := 0; i < 2; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("Pop() = %d,%v, want %d,true", v, ok, i)
		}
	}
	if q.FlushSpill() {
		t.Fatal("FlushSpill() claimed empty spill with 3 entries left")
	}
	if q.SpillLen() != 3 {
		t.Fatalf("SpillLen() after partial flush = %d, want 3", q.SpillLen())
	}
	// Drain everything; order must be 2..12 without gaps.
	want := 2
	for {
		v, ok := q.Pop()
		if !ok {
			if q.FlushSpill() && !q.Pending() {
				break
			}
			continue
		}
		if v != want {
			t.Fatalf("Pop() = %d, want %d (spill reordered)", v, want)
		}
		want++
	}
	if want != q.Cap()+5 {
		t.Fatalf("drained %d entries, want %d", want, q.Cap()+5)
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
