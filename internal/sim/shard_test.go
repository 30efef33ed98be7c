package sim

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shardMsg is a message crossing shards in tests: fire fn at time at on the
// destination engine. sent is the producer's clock at the send.
type shardMsg struct {
	at, sent time.Duration
	fn       func()
}

// ringMailbox is a minimal Exchange, built the way fabric's cross links
// are: the producer shard appends timed callbacks to a slice as it runs its
// window; the destination drains them between windows into arrival events.
// Each message is its own delivery, so its event is filed under its send
// time — where an At call made by the sender itself would have put it.
type ringMailbox struct {
	src, dst *Engine
	index    int
	out      []shardMsg
}

func newRingMailbox(g *Group, src, dst *Engine) *ringMailbox {
	m := &ringMailbox{src: src, dst: dst}
	m.index = g.AddExchangeFrom(src, dst, m)
	return m
}

// send is called by the producing shard during its window.
func (m *ringMailbox) send(at time.Duration, fn func()) {
	m.out = append(m.out, shardMsg{at: at, sent: m.src.Now(), fn: fn})
}

func (m *ringMailbox) Drain() {
	for _, msg := range m.out {
		m.dst.ArriveArg(msg.at, msg.sent, m.index, func(fn any) { fn.(func())() }, msg.fn)
	}
	m.out = m.out[:0]
}

// ringPair builds a two-shard group joined by ring mailboxes both ways with
// lookahead la.
func ringPair(la time.Duration) (root, s1 *Engine, toS1, toRoot *ringMailbox) {
	root = New(1)
	s1 = root.NewShard()
	g := root.Group()
	toS1 = newRingMailbox(g, root, s1)
	toRoot = newRingMailbox(g, s1, root)
	g.ObserveLookaheadBetween(root, s1, la)
	g.ObserveLookaheadBetween(s1, root, la)
	return root, s1, toS1, toRoot
}

// mustPanic runs fn and returns the message it panicked with, failing the
// test if it returned normally.
func mustPanic(t *testing.T, what string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		} else {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
	return ""
}

func TestShardGroupIndependentShards(t *testing.T) {
	root := New(1)
	s1 := root.NewShard()
	var a, b time.Duration
	root.After(5*time.Millisecond, func() { a = root.Now() })
	s1.After(9*time.Millisecond, func() { b = s1.Now() })
	end := root.Run()
	if a != 5*time.Millisecond || b != 9*time.Millisecond {
		t.Fatalf("events fired at %v / %v", a, b)
	}
	if end != 9*time.Millisecond {
		t.Fatalf("Run returned %v, want 9ms (max over shards)", end)
	}
}

func TestShardEngineRejectsDirectRun(t *testing.T) {
	root := New(1)
	s1 := root.NewShard()
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a shard engine did not panic")
		}
	}()
	s1.Run()
}

func TestShardCrossTrafficRespectsLookahead(t *testing.T) {
	// A three-shard relay ring, root → s1 → s2 → root, with a different
	// flight time on every leg: a token injected every 100µs must reach
	// each hop at exactly the time a serial simulation would produce, even
	// though no shard has a direct return edge to the one feeding it.
	legs := []time.Duration{10 * time.Microsecond, 3 * time.Microsecond, 7 * time.Microsecond}
	root := New(1)
	eng := []*Engine{root, root.NewShard(), root.NewShard()}
	g := root.Group()
	var hop []*ringMailbox
	for i, la := range legs {
		src, dst := eng[i], eng[(i+1)%3]
		hop = append(hop, newRingMailbox(g, src, dst))
		g.ObserveLookaheadBetween(src, dst, la)
	}
	var seen [3][]time.Duration // arrival times at s1, s2, root
	const tokens = 50
	for i := 1; i <= tokens; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		root.At(at, func() {
			hop[0].send(at+legs[0], func() {
				seen[0] = append(seen[0], eng[1].Now())
				hop[1].send(eng[1].Now()+legs[1], func() {
					seen[1] = append(seen[1], eng[2].Now())
					hop[2].send(eng[2].Now()+legs[2], func() { seen[2] = append(seen[2], root.Now()) })
				})
			})
		})
	}
	root.Run()

	for h := range seen {
		if len(seen[h]) != tokens {
			t.Fatalf("hop %d saw %d tokens, want %d", h, len(seen[h]), tokens)
		}
	}
	for i := 0; i < tokens; i++ {
		want := time.Duration(i+1) * 100 * time.Microsecond
		for h := range seen {
			want += legs[h]
			if seen[h][i] != want {
				t.Fatalf("token %d reached hop %d at %v, want %v", i, h, seen[h][i], want)
			}
		}
	}
}

func TestShardSameTimestampMergeIsRegistrationOrder(t *testing.T) {
	// Two producer shards inject events at the *same* timestamp, sent at
	// the same instant, into the same destination, which also has an event
	// of its own there. The arrivals must fire in exchange registration
	// order, ahead of the destination's own event scheduled at that send
	// instant — the order of the one-engine twin, where the two senders'
	// callbacks run in creation order — run after run, whichever producer's
	// goroutine gets there first and whichever round drains it.
	const flight = time.Microsecond
	script := func(a, b, dst *Engine, fromA, fromB func(at time.Duration, fn func()), order *[]int) {
		for i := 0; i < 20; i++ {
			at := time.Duration(i) * 10 * time.Microsecond
			a.At(at, func() { fromA(a.Now()+flight, func() { *order = append(*order, 0) }) })
			b.At(at, func() { fromB(b.Now()+flight, func() { *order = append(*order, 1) }) })
			dst.At(at, func() { dst.At(at+flight, func() { *order = append(*order, 2) }) })
		}
	}
	var serial []int
	e := New(1)
	local := func(at time.Duration, fn func()) { e.At(at, fn) }
	script(e, e, e, local, local, &serial)
	e.Run()
	if len(serial) != 60 {
		t.Fatalf("serial twin fired %d events, want 60", len(serial))
	}
	for i := 0; i < 60; i += 3 {
		if !slices.Equal(serial[i:i+3], []int{0, 1, 2}) {
			t.Fatalf("serial twin order at instant %d: %v", i/3, serial[i:i+3])
		}
	}
	for trial := 0; trial < 200; trial++ {
		root := New(1)
		a := root.NewShard()
		b := root.NewShard()
		g := root.Group()
		fromA := newRingMailbox(g, a, root)
		fromB := newRingMailbox(g, b, root)
		g.ObserveLookaheadBetween(a, root, flight)
		g.ObserveLookaheadBetween(b, root, flight)
		var order []int
		script(a, b, root, fromA.send, fromB.send, &order)
		root.Run()
		if !slices.Equal(order, serial) {
			t.Fatalf("trial %d diverged from the one-engine twin:\n%v\n%v", trial, order, serial)
		}
	}
}

func TestShardRunUntilClockSemantics(t *testing.T) {
	root := New(1)
	s1 := root.NewShard()
	var n atomic.Int32
	root.After(time.Millisecond, func() { n.Add(1) })
	s1.After(2*time.Millisecond, func() { n.Add(1) })
	s1.After(8*time.Millisecond, func() { n.Add(1) })
	end := root.RunUntil(5 * time.Millisecond)
	if n.Load() != 2 {
		t.Fatalf("fired %d events before limit, want 2", n.Load())
	}
	// Events remain beyond the limit: the clock parks at the limit, exactly
	// as a serial engine's RunUntil would.
	if end != 5*time.Millisecond {
		t.Fatalf("RunUntil returned %v, want 5ms", end)
	}
	end = root.Run()
	if n.Load() != 3 || end != 8*time.Millisecond {
		t.Fatalf("after Run: n=%d end=%v", n.Load(), end)
	}
}

func TestShardPanicAborts(t *testing.T) {
	// No exchanges: the shards run to completion independently, and a
	// failure on a worker goroutine must still come out of the caller's
	// Run with the original message.
	root := New(1)
	s1 := root.NewShard()
	for i := 1; i <= 100; i++ {
		root.At(time.Duration(i)*time.Microsecond, func() {})
		s1.At(time.Duration(i)*time.Microsecond, func() {})
	}
	s1.At(50*time.Microsecond, func() { panic("injected shard failure") })
	msg := mustPanic(t, "group run", func() { root.Run() })
	if !strings.Contains(msg, "injected shard failure") {
		t.Fatalf("propagated panic %q does not carry the original failure", msg)
	}
}

func TestShardGroupShutdown(t *testing.T) {
	root := New(1)
	s1 := root.NewShard()
	var stopped atomic.Int32
	root.Spawn("r", func(p *Proc) {
		defer stopped.Add(1)
		p.Sleep(time.Hour)
	})
	s1.Spawn("s", func(p *Proc) {
		defer stopped.Add(1)
		p.Sleep(time.Hour)
	})
	root.RunUntil(time.Millisecond)
	root.Shutdown()
	if stopped.Load() != 2 {
		t.Fatalf("shutdown unwound %d procs, want 2", stopped.Load())
	}
}

func TestShardLookaheadValidation(t *testing.T) {
	root := New(1)
	s1 := root.NewShard()
	other := New(3)
	g := root.Group()
	msg := mustPanic(t, "ObserveLookaheadBetween(0)", func() { g.ObserveLookaheadBetween(root, s1, 0) })
	if !strings.Contains(msg, "0→1") {
		t.Errorf("non-positive lookahead panic %q does not name the shard pair", msg)
	}
	mustPanic(t, "ObserveLookaheadBetween on the same shard", func() { g.ObserveLookaheadBetween(s1, s1, time.Microsecond) })
	mustPanic(t, "ObserveLookaheadBetween with a foreign engine", func() { g.ObserveLookaheadBetween(other, s1, time.Microsecond) })
	mustPanic(t, "AddExchangeFrom on the same shard", func() { newRingMailbox(g, s1, s1) })
	mustPanic(t, "AddExchangeFrom with a foreign engine", func() { newRingMailbox(g, root, other) })
	// An exchange registered but no lookahead observed for its pair: the
	// window protocol has no safe width and must refuse to run.
	newRingMailbox(g, root, s1)
	msg = mustPanic(t, "run with an exchange but no lookahead", func() { root.Run() })
	if !strings.Contains(msg, "0→1") {
		t.Errorf("missing-lookahead panic %q does not name the shard pair", msg)
	}
}

func TestShardPairLookaheadValidation(t *testing.T) {
	// A lookahead observed for one pair says nothing about another: an
	// exchange across a pair that never observed one must refuse to run,
	// and the message must say which pair.
	root := New(1)
	s1 := root.NewShard()
	s2 := root.NewShard()
	g := root.Group()
	newRingMailbox(g, root, s1)
	g.ObserveLookaheadBetween(root, s1, time.Microsecond)
	g.ObserveLookaheadBetween(root, s2, time.Microsecond) // the reverse direction of the pair below
	newRingMailbox(g, s2, root)                           // s2→root has no observed bound
	msg := mustPanic(t, "run with an unbounded pair exchange", func() { root.Run() })
	if !strings.Contains(msg, "exchange 1") || !strings.Contains(msg, "2→0") {
		t.Errorf("panic %q does not name exchange 1 and shards 2→0", msg)
	}
}

func TestShardPerPairWiderThanGlobalMin(t *testing.T) {
	// Shards r and s2 exchange pings over slow 100µs links, while a third
	// shard s1 observes fast 1µs lookaheads but has no channel. la counts
	// only pairs that carry an exchange, so windows are 100µs wide, and
	// each round starts at the group's next event, so the idle gaps
	// between pings cost nothing.
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
	// The fast pair contributes only observations, no channel: an observed
	// latency nothing can travel over is not an edge.
	g.ObserveLookaheadBetween(root, s1, fast)
	g.ObserveLookaheadBetween(s1, root, fast)

	var pongs []time.Duration
	const pings = 10
	for i := 1; i <= pings; i++ {
		at := time.Duration(i) * 200 * time.Microsecond
		root.At(at, func() {
			toS2.send(at+slow, func() {
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

	prof := g.Profile()
	total := prof.Total()
	// 10 pings over 2ms of virtual time: 1µs windows that stepped through
	// the idle gaps would need a round per 1µs of progress (thousands);
	// here each ping leg is a round.
	perShard := total.Windows / uint64(len(prof.Shards))
	if perShard > 200 {
		t.Fatalf("ran %d rounds per shard; the ~2000 of 1µs windows through the idle gaps would mean la counts a pair with no exchange", perShard)
	}
}
