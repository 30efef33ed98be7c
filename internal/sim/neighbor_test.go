package sim

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardNeighborCrossTrafficRespectsLookahead(t *testing.T) {
	// Shard 0 pings shard 1 every 100µs with a 10µs flight time; each ping
	// triggers a pong back. Every delivery must land at exactly the time a
	// serial simulation would produce.
	const flight = 10 * time.Microsecond
	root, s1, toS1, toRoot := ringPair(flight)
	g := root.Group()

	var pings, pongs []time.Duration
	for i := 1; i <= 50; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		fire := at // capture
		root.At(at, func() {
			toS1.send(fire+flight, func() {
				pings = append(pings, s1.Now())
				toRoot.send(s1.Now()+flight, func() { pongs = append(pongs, root.Now()) })
			})
		})
	}
	root.Run()

	if len(pings) != 50 || len(pongs) != 50 {
		t.Fatalf("got %d pings, %d pongs, want 50 each", len(pings), len(pongs))
	}
	for i := 0; i < 50; i++ {
		at := time.Duration(i+1) * 100 * time.Microsecond
		if pings[i] != at+flight {
			t.Fatalf("ping %d at %v, want %v", i, pings[i], at+flight)
		}
		if pongs[i] != at+2*flight {
			t.Fatalf("pong %d at %v, want %v", i, pongs[i], at+2*flight)
		}
	}
	if total := g.Profile().Total(); total.Windows == 0 {
		t.Fatalf("profile did not record work: %+v", total)
	}
}

func TestShardNeighborMatchesBarrier(t *testing.T) {
	// The same ping-pong on a two-shard group and on its one-engine twin
	// must yield identical traces. (The serial engine is the reference the
	// name's barrier protocol used to be.)
	const flight = 5 * time.Microsecond
	script := func(e0, e1 *Engine, to1, to0 func(at time.Duration, fn func()), trace *[]string) {
		for i := 1; i <= 30; i++ {
			at := time.Duration(i) * 40 * time.Microsecond
			e0.At(at, func() {
				to1(at+flight, func() {
					*trace = append(*trace, fmt.Sprint("ping@", e1.Now()))
					to0(e1.Now()+flight, func() { *trace = append(*trace, fmt.Sprint("pong@", e0.Now())) })
				})
			})
		}
	}
	var serial, sharded []string
	e := New(1)
	local := func(at time.Duration, fn func()) { e.At(at, fn) }
	script(e, e, local, local, &serial)
	e.Run()
	if len(serial) != 60 {
		t.Fatalf("serial twin logged %d events, want 60", len(serial))
	}
	root, s1, toS1, toRoot := ringPair(flight)
	script(root, s1, toS1.send, toRoot.send, &sharded)
	root.Run()
	if !slices.Equal(sharded, serial) {
		t.Fatalf("sharded trace differs from the one-engine twin:\n%v\n%v", sharded, serial)
	}
}

func TestShardNeighborBurstGrowsRing(t *testing.T) {
	// One event sends a burst of 100 messages within one window: every
	// message must be delivered exactly once at its scheduled time.
	const flight = time.Microsecond
	const burst = 100
	root := New(1)
	s1 := root.NewShard()
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	g.ObserveLookaheadBetween(root, s1, flight)

	var got []time.Duration
	root.At(10*time.Microsecond, func() {
		base := root.Now() + flight
		for i := 0; i < burst; i++ {
			at := base + time.Duration(i)*time.Microsecond
			toS1.send(at, func() { got = append(got, s1.Now()) })
		}
	})
	root.Run()

	if len(got) != burst {
		t.Fatalf("delivered %d messages, want %d", len(got), burst)
	}
	for i, at := range got {
		want := 11*time.Microsecond + time.Duration(i)*time.Microsecond
		if at != want {
			t.Fatalf("message %d delivered at %v, want %v", i, at, want)
		}
	}
	if len(toS1.out) != 0 {
		t.Fatalf("%d messages left undrained after the run", len(toS1.out))
	}
}

func TestShardNeighborRunUntilClockSemantics(t *testing.T) {
	const flight = time.Microsecond
	root := New(1)
	s1 := root.NewShard()
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	g.ObserveLookaheadBetween(root, s1, flight)
	var n atomic.Int32
	root.After(time.Millisecond, func() { n.Add(1) })
	s1.After(2*time.Millisecond, func() { n.Add(1) })
	s1.After(8*time.Millisecond, func() { n.Add(1) })
	root.After(7*time.Millisecond, func() {
		toS1.send(root.Now()+flight, func() { n.Add(1) })
	})
	end := root.RunUntil(5 * time.Millisecond)
	if n.Load() != 2 {
		t.Fatalf("fired %d events before limit, want 2", n.Load())
	}
	if end != 5*time.Millisecond {
		t.Fatalf("RunUntil returned %v, want 5ms", end)
	}
	end = root.Run()
	if n.Load() != 4 || end != 8*time.Millisecond {
		t.Fatalf("after Run: n=%d end=%v", n.Load(), end)
	}
}

func TestShardNeighborPanicAborts(t *testing.T) {
	root := New(1)
	s1 := root.NewShard()
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	toRoot := newRingMailbox(g, s1, root)
	g.ObserveLookaheadBetween(root, s1, time.Microsecond)
	g.ObserveLookaheadBetween(s1, root, time.Microsecond)
	// Keep both shards exchanging so the healthy one meets the other at
	// the barriers when it dies.
	for i := 1; i <= 100; i++ {
		at := time.Duration(i) * time.Microsecond
		root.At(at, func() { toS1.send(root.Now()+time.Microsecond, func() {}) })
		s1.At(at, func() { toRoot.send(s1.Now()+time.Microsecond, func() {}) })
	}
	s1.At(50*time.Microsecond, func() { panic("injected shard failure") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("group run did not propagate the shard panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "injected shard failure") {
			t.Fatalf("propagated panic %v does not carry the original failure", r)
		}
	}()
	root.Run()
}

func TestShardNeighborProfile(t *testing.T) {
	const flight = time.Microsecond
	root := New(1)
	s1 := root.NewShard()
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	toRoot := newRingMailbox(g, s1, root)
	g.ObserveLookaheadBetween(root, s1, flight)
	g.ObserveLookaheadBetween(s1, root, flight)
	for i := 1; i <= 200; i++ {
		at := time.Duration(i) * 3 * time.Microsecond
		root.At(at, func() {
			toS1.send(root.Now()+flight, func() {
				toRoot.send(s1.Now()+flight, func() {})
			})
		})
	}
	root.Run()

	prof := g.Profile()
	if len(prof.Shards) != len(g.shards) {
		t.Fatalf("profile has %d shards, the group %d", len(prof.Shards), len(g.shards))
	}
	// The pings leave root at 3i µs, reach s1 at 3i+1 and return at 3i+2:
	// 600 instants a window apart, as the 1µs lookahead allows no more,
	// and each shard runs every window.
	total := prof.Total()
	if total.Windows != 2*600 {
		t.Fatalf("ran %d windows, want 2 shards × 600 instants", total.Windows)
	}
	if total.Stalls == 0 {
		t.Fatalf("no stalls recorded on a blocking ping-pong: %+v", total)
	}
}

func TestShardNeighborSparseTopologyRounds(t *testing.T) {
	// TestShardPerPairWiderThanGlobalMin with the fast pair wired up: r and
	// s2 ping over slow 100µs edges while s1 sits on fast 1µs edges but
	// stays silent. Its channels make la 1µs, so a window is 1µs wide, but
	// each round starts at the group's next event: the idle gaps between
	// pings cost no window, and the pings cost one round an instant, not
	// one per 1µs step.
	const slow = 100 * time.Microsecond
	const fast = time.Microsecond
	root := New(1)
	s1 := root.NewShard()
	s2 := root.NewShard()
	g := root.Group()
	toS2 := newRingMailbox(g, root, s2)
	toRoot := newRingMailbox(g, s2, root)
	g.ObserveLookaheadBetween(root, s2, slow)
	g.ObserveLookaheadBetween(s2, root, slow)
	// The fast pair has live channels (so the edges exist) but no traffic.
	newRingMailbox(g, root, s1)
	newRingMailbox(g, s1, root)
	g.ObserveLookaheadBetween(root, s1, fast)
	g.ObserveLookaheadBetween(s1, root, fast)

	var pongs []time.Duration
	const pings = 10
	for i := 1; i <= pings; i++ {
		at := time.Duration(i) * 200 * time.Microsecond
		fire := at
		root.At(at, func() {
			toS2.send(fire+slow, func() {
				toRoot.send(s2.Now()+slow, func() { pongs = append(pongs, root.Now()) })
			})
		})
	}
	root.Run()

	if len(pongs) != pings {
		t.Fatalf("got %d pongs, want %d", len(pongs), pings)
	}
	for i, at := range pongs {
		want := time.Duration(i+1)*200*time.Microsecond + 2*slow
		if at != want {
			t.Fatalf("pong %d at %v, want %v", i, at, want)
		}
	}
	if perShard := g.Profile().Total().Windows / uint64(len(g.shards)); perShard > 200 {
		t.Fatalf("ran %d windows per shard; 1µs windows that crept through the idle gaps would need ~2000", perShard)
	}
}

func TestShardNeighborModeSwitch(t *testing.T) {
	// Switch between bounded and unbounded runs of one group: messages a
	// bounded run already moved off the rings, into events beyond its
	// limit, must be delivered on time by the runs that follow.
	const flight = time.Microsecond
	root, s1, toS1, _ := ringPair(flight)

	var got []time.Duration
	record := func() { got = append(got, s1.Now()) }
	for i := 1; i <= 10; i++ {
		at := time.Duration(i) * 10 * time.Microsecond
		root.At(at, func() { toS1.send(root.Now()+flight, record) })
	}
	// The first limit falls between a send (30µs) and its arrival (31µs).
	if end := root.RunUntil(30*time.Microsecond + flight/2); len(got) != 2 || end != 30*time.Microsecond+flight/2 {
		t.Fatalf("first bounded run: %d deliveries, clock %v", len(got), end)
	}
	root.RunUntil(75 * time.Microsecond)
	if len(got) != 7 {
		t.Fatalf("second bounded run left %d deliveries, want 7", len(got))
	}
	root.Run()

	if len(got) != 10 {
		t.Fatalf("delivered %d messages across the runs, want 10", len(got))
	}
	for i, at := range got {
		want := time.Duration(i+1)*10*time.Microsecond + flight
		if at != want {
			t.Fatalf("message %d delivered at %v, want %v", i, at, want)
		}
	}
}
