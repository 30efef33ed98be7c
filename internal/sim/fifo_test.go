package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// TestRingMatchesFlatTwin drives rings that share one engine's chunk pool
// through seeded random Push, Room, Pop, Span and Drop, each ring against a
// plain slice, reading Front, Back and a Walk over every entry along the
// way. The rings fill past the largest chunk and drain to empty again and
// again. Along the way no chunk may sit in two rings, or in a ring and the
// pool; once every ring is empty, every chunk a ring ever held must be back
// in the pool exactly once, in its size class. A ring of a type that holds
// pointers must have zeroed it too; one of a pointer-free type leaves its
// vacated slots as they were.
func TestRingMatchesFlatTwin(t *testing.T) {
	t.Run("int", func(t *testing.T) { ringTwin(t, func(v int) int { return v }, false) })
	t.Run("pointer", func(t *testing.T) {
		ringTwin(t, func(v int) boxed { return boxed{v: v, p: &v} }, true)
	})
}

// TestHoldsPointers: the rule a pool decides zeroing by, on the shapes a
// ring holds — a cell is bytes and flags, a wire run or a train stamp
// durations and counts — and on a few that do hold pointers.
func TestHoldsPointers(t *testing.T) {
	for _, c := range []struct {
		v    any
		want bool
	}{
		{struct {
			v    uint16
			eop  bool
			data [48]byte
		}{}, false},
		{struct {
			first time.Duration
			n     int32
		}{}, false},
		{[0]*int{}, false},
		{boxed{}, true},
		{"", true},
		{[2]struct{ f func() }{}, true},
		{struct{ s []byte }{}, true},
	} {
		if got := holdsPointers(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("holdsPointers(%T) = %v, want %v", c.v, got, c.want)
		}
	}
}

// boxed is an entry that holds a pointer, so its ring zeroes what it drops.
type boxed struct {
	v int
	p *int
}

func ringTwin[T comparable](t *testing.T, val func(int) T, scrubs bool) {
	e := New(0)
	pool := Local[chunkPool[T]](e)
	rings := make([]Ring[T], 8)
	twins := make([][]T, len(rings))
	for i := range rings {
		rings[i] = NewRing[T](e)
	}
	if pool.scrub != scrubs {
		t.Fatalf("the pool says its type holds pointers: %v, want %v", pool.scrub, scrubs)
	}
	held := map[*chunk[T]]bool{} // every chunk a ring has drawn
	owners := func() map[*chunk[T]]string {
		at := map[*chunk[T]]string{}
		claim := func(c *chunk[T], who string) {
			if prev, ok := at[c]; ok {
				t.Fatalf("a chunk is in %s and in %s", prev, who)
			}
			at[c] = who
		}
		for i := range rings {
			for c := rings[i].head; c != nil; c = c.next {
				claim(c, fmt.Sprintf("ring %d", i))
			}
		}
		for class, c := range pool.free {
			for ; c != nil; c = c.next {
				if len(c.buf) != 4<<class {
					t.Fatalf("a %d-entry chunk is in the pool's %d-entry class", len(c.buf), 4<<class)
				}
				claim(c, "the pool")
			}
		}
		return at
	}

	rng := rand.New(rand.NewSource(1))
	next := 1 // the zero value is what a vacated slot reads when it is zeroed
	for step := 0; step < 100000; step++ {
		i := rng.Intn(len(rings))
		r := &rings[i]
		// Rounds of growth and of draining, so rings reach the largest
		// chunks and empty again.
		grow := rng.Intn(100) < 40+20*(step/5000%2)
		switch {
		case grow && rng.Intn(2) == 0:
			v := val(next)
			r.Push(v)
			twins[i] = append(twins[i], v)
			next++
		case grow:
			room := r.Room(1 + rng.Intn(200))
			if len(room) == 0 {
				t.Fatalf("step %d: Room returned no slot", step)
			}
			for k := range room {
				room[k] = val(next)
				twins[i] = append(twins[i], room[k])
				next++
			}
		case r.Len() == 0:
		case rng.Intn(3) == 0:
			if v := r.Pop(); v != twins[i][0] {
				t.Fatalf("step %d: ring %d popped %v, twin says %v", step, i, v, twins[i][0])
			}
			twins[i] = twins[i][1:]
		default:
			want := 1 + rng.Intn(200)
			span := r.Span(want)
			if len(span) == 0 || len(span) > want || !slices.Equal(span, twins[i][:len(span)]) {
				t.Fatalf("step %d: ring %d Span(%d) = %v, twin starts %v", step, i, want, span, twins[i][:min(want, len(twins[i]))])
			}
			// A walk over a prefix, by stretches of a random bound, then
			// one read of the whole ring.
			n := rng.Intn(r.Len() + 1)
			w := r.Walk(n)
			for j := 0; j < n; {
				bound := 1 + rng.Intn(150)
				seg := w.Next(bound)
				if len(seg) == 0 || len(seg) > bound || !slices.Equal(seg, twins[i][j:j+len(seg)]) {
					t.Fatalf("step %d: ring %d walk at %d gave %v, twin says %v", step, i, j, seg, twins[i][j:min(j+bound, len(twins[i]))])
				}
				j += len(seg)
			}
			if seg := w.Next(1); len(seg) != 0 {
				t.Fatalf("step %d: ring %d walk over %d entries read %d more", step, i, n, len(seg))
			}
			all := make([]T, r.Len()+1)
			w = r.Walk(r.Len())
			if got := w.Read(all); got != r.Len() || !slices.Equal(all[:got], twins[i]) {
				t.Fatalf("step %d: ring %d Read gave %d entries, differing from the twin's %d", step, i, got, len(twins[i]))
			}
			k := rng.Intn(r.Len() + 1) // may cross chunks
			r.Drop(k)
			twins[i] = twins[i][k:]
		}
		if r.tail != nil {
			held[r.tail] = true
		}
		if r.Len() != len(twins[i]) {
			t.Fatalf("step %d: ring %d holds %d, twin %d", step, i, r.Len(), len(twins[i]))
		}
		if n := len(twins[i]); n > 0 && (*r.Front() != twins[i][0] || *r.Back() != twins[i][n-1]) {
			t.Fatalf("step %d: ring %d has %v at the front and %v at the back, twin %v and %v", step, i, *r.Front(), *r.Back(), twins[i][0], twins[i][n-1])
		}
		if step%1000 == 0 {
			owners()
		}
	}
	for i := range rings {
		for len(twins[i]) > 0 {
			if v := rings[i].Pop(); v != twins[i][0] {
				t.Fatalf("draining ring %d: popped %v, twin says %v", i, v, twins[i][0])
			}
			twins[i] = twins[i][1:]
		}
		if rings[i].head != nil || rings[i].tail != nil {
			t.Fatalf("ring %d is empty but still holds a chunk", i)
		}
	}

	at := owners()
	var zero T
	for c := range held {
		if at[c] != "the pool" {
			t.Fatal("a chunk a ring held never came back to the pool")
		}
		if scrubs && slices.ContainsFunc(c.buf, func(v T) bool { return v != zero }) {
			t.Fatal("a chunk came back to the pool holding entries")
		}
	}
	if len(at) != len(held) {
		t.Fatalf("the pool holds %d chunks, the rings drew %d", len(at), len(held))
	}
	if len(held) < 20 || pool.free[chunkClasses-1] == nil {
		t.Fatalf("the rings drew %d chunks, none of the largest class: the schedule tests little", len(held))
	}
}

// TestZeroRingKeepsItsChunks: a ring without an engine keeps the chunks it
// drained, its last one in place, so filling it to the same depth again
// allocates nothing.
func TestZeroRingKeepsItsChunks(t *testing.T) {
	var r Ring[int]
	fill := func() {
		for i := 0; i < 300; i++ {
			r.Push(i)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	}
	fill()
	if r.pool == nil || r.head == nil || r.head != r.tail {
		t.Fatal("a drained zero-value ring kept no pool, or other than one chunk")
	}
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Fatalf("refilling a drained ring allocated %.0f times, want 0", allocs)
	}
}

// TestRoomHoldsARunInOneChunk: a run queued at a full tail lies in one
// chunk, of the smallest size that holds it, up to 128 entries, and never
// smaller than the largest power of two within half the ring's length
// (once that is 16 or more), which is what bounds a long ring's slack.
// Both a pooled ring and a zero-value one.
func TestRoomHoldsARunInOneChunk(t *testing.T) {
	e := New(0)
	rings := map[string]func() Ring[int]{
		"NewRing": func() Ring[int] { return NewRing[int](e) },
		"zero":    func() Ring[int] { return Ring[int]{} },
	}
	for name, fresh := range rings {
		for n := 1; n <= 128; n++ {
			r := fresh()
			if got := len(r.Room(n)); got != n {
				t.Fatalf("%s: Room(%d) on an empty ring returned %d slots", name, n, got)
			}
			r.Drop(n)
		}
		r := fresh()
		if got := len(r.Room(200)); got != 128 {
			t.Fatalf("%s: Room(200) on an empty ring returned %d slots, want 128", name, got)
		}
		for m := 16; m <= 600; m++ {
			for _, n := range []int{1, 3, 22, 128, 200} {
				r := fresh()
				for r.Len() < m {
					r.Room(m - r.Len())
				}
				if free := len(r.tail.buf) - int(r.end); free > 0 {
					r.Room(free) // fill the tail
				}
				held := r.Len()
				half := 1
				for 2*half <= held/2 {
					half *= 2
				}
				run := 4
				for run < n {
					run *= 2
				}
				want := min(max(half, run), 128)
				if got := len(r.Room(n)); got != min(n, 128) {
					t.Fatalf("%s: Room(%d) on a ring of %d with a full tail returned %d slots", name, n, held, got)
				}
				if got := len(r.tail.buf); got != want {
					t.Fatalf("%s: Room(%d) on a ring of %d took a %d-entry chunk, want %d", name, n, held, got, want)
				}
				r.Drop(r.Len())
			}
		}
	}
}
