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
	total := g.Profile().Total()
	if total.Events == 0 || total.Drains == 0 {
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
	// One event pushes far more messages than the first ring holds
	// (capacity 8), so the ring grows inside the producer's window: every
	// message must be delivered exactly once at its scheduled time.
	const flight = time.Microsecond
	const burst = 100
	root := New(1)
	s1 := root.NewShard(2)
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	toS1.ring = NewSPSC[shardMsg](8)
	g.ObserveLookaheadBetween(root, s1, flight)
	// A return edge keeps s1 from free-running ahead of the test's window.
	newRingMailbox(g, s1, root)
	g.ObserveLookaheadBetween(s1, root, flight)

	var got []time.Duration
	pushed := make(chan struct{})
	root.At(10*time.Microsecond, func() {
		base := root.Now() + flight
		for i := 0; i < burst; i++ {
			at := base + time.Duration(i)*time.Microsecond
			toS1.send(at, func() { got = append(got, s1.Now()) })
		}
		close(pushed)
	})
	// s1 sits in an event of the same window until the burst is in, so it
	// drains none of it meanwhile and the ring's growth is the same every run.
	s1.At(10*time.Microsecond, func() { <-pushed })
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
	if toS1.ring.Pending() {
		t.Fatal("ring not fully drained after the run")
	}
	// 8+16+32 entries hold 56 messages; the other 44 sit in a ring of 64.
	if c := toS1.ring.Cap(); c != 64 {
		t.Fatalf("ring Cap() = %d after a %d-message burst through 8 entries, want 64", c, burst)
	}
}

func TestShardNeighborRunUntilClockSemantics(t *testing.T) {
	const flight = time.Microsecond
	root := New(1)
	s1 := root.NewShard(2)
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
	s1 := root.NewShard(2)
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	toRoot := newRingMailbox(g, s1, root)
	g.ObserveLookaheadBetween(root, s1, time.Microsecond)
	g.ObserveLookaheadBetween(s1, root, time.Microsecond)
	// Keep both shards exchanging so the healthy one is blocked in
	// waitNeighbor when the other dies.
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

func TestShardNeighborProfileAndReset(t *testing.T) {
	const flight = time.Microsecond
	root := New(1)
	s1 := root.NewShard(2)
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
	total := prof.Total()
	if total.Stalls == 0 {
		t.Fatalf("no stalls recorded on a blocking ping-pong: %+v", total)
	}
	if total.BarrierWait == 0 {
		t.Fatal("stalls recorded but no sync-wait time attributed")
	}
	// Every stall blocks on a real in-neighbor edge, so the per-edge
	// attribution must carry the same wall-clock the totals do.
	var edgeSum time.Duration
	for _, p := range prof.Shards {
		if len(p.EdgeWait) != g.Shards() {
			t.Fatalf("shard %d EdgeWait has %d entries, want %d", p.Shard, len(p.EdgeWait), g.Shards())
		}
		for _, w := range p.EdgeWait {
			edgeSum += w
		}
	}
	if edgeSum == 0 {
		t.Fatal("no wait attributed to any edge")
	}
	if edges := prof.WorstEdges(); len(edges) == 0 {
		t.Fatal("WorstEdges empty despite recorded edge waits")
	} else {
		for i := 1; i < len(edges); i++ {
			if edges[i].Wait > edges[i-1].Wait {
				t.Fatal("WorstEdges not sorted worst-first")
			}
		}
	}
	if !strings.Contains(prof.String(), "edge waits") {
		t.Fatal("profile rendering lacks the edge-wait ranking")
	}

	g.ResetProfile()
	reset := g.Profile()
	if tot := reset.Total(); tot.Stalls != 0 || tot.Windows != 0 || tot.BarrierWait != 0 {
		t.Fatalf("ResetProfile left counters: %+v", tot)
	}
	for _, p := range reset.Shards {
		for src, w := range p.EdgeWait {
			if w != 0 {
				t.Fatalf("ResetProfile left EdgeWait[%d]=%v on shard %d", src, w, p.Shard)
			}
		}
	}
}

func TestShardNeighborSparseTopologyRounds(t *testing.T) {
	// TestShardPerPairWiderThanGlobalMin with the fast pair wired up: r and
	// s2 ping over slow 100µs edges while s1 sits on fast 1µs edges but
	// stays silent. Horizons derive from direct in-neighbors plus the
	// quiescence floor, so the idle gaps must cost a handful of rounds, not
	// a creep in 1µs lookahead steps.
	const slow = 100 * time.Microsecond
	const fast = time.Microsecond
	root := New(1)
	s1 := root.NewShard(2)
	s2 := root.NewShard(3)
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
	prof := g.Profile().Total()
	perShard := prof.Windows / uint64(g.Shards())
	if perShard > 200 {
		t.Fatalf("ran %d windows per shard; a 1µs global-window creep would need ~2000", perShard)
	}
	if prof.FastForwards == 0 {
		t.Fatal("no window was enabled by the quiescence floor")
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
