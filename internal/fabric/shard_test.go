package fabric

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// echoSink records every arrival and bounces it straight back on the host's
// uplink with a reply VCI, so traffic crosses the shard boundary in both
// directions and reply timing depends on arrival timing.
type echoSink struct {
	e     *sim.Engine
	up    *Link
	reply atm.VCI
	log   *[]string
	name  string
}

func (s *echoSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	for i, c := range cells {
		at := first + time.Duration(i)*spacing
		*s.log = append(*s.log, fmt.Sprintf("%s %v vci=%d seq=%d", s.name, at, c.VCI, c.Payload[0]))
	}
	if s.reply != 0 {
		replies := slices.Clone(cells)
		for i := range replies {
			replies[i].VCI = s.reply
		}
		s.up.SendRun(replies, first, spacing)
	}
}

func TestCrossLinkTimingMatchesLocal(t *testing.T) {
	// A cross link must deliver at exactly the times a local link produces:
	// the transmit half owns serialization, the receive half replays flight.
	// Five cells, and 2 000 handed over before the run starts — the backlog
	// fwdFire leaves at a contended port — that the first drain stages
	// across many chunks of the receive half's ring.
	lp := LinkParams{CellTime: 3 * us, Propagation: 1 * us}
	for _, tc := range []struct{ cells int }{{5}, {2000}} {
		le := sim.New(1)
		lcol := &collector{}
		ll := NewLink(le, "l", lp, lcol)
		for i := 0; i < tc.cells; i++ {
			ll.Send(atm.Cell{VCI: atm.VCI(i)})
		}
		le.Run()

		root := sim.New(1)
		dst := root.NewShard()
		ccol := &collector{}
		cl := NewCrossLink(root, dst, "x", lp, ccol)
		for i := 0; i < tc.cells; i++ {
			cl.Send(atm.Cell{VCI: atm.VCI(i)})
		}
		root.Run()

		if len(lcol.times) != tc.cells || len(ccol.times) != tc.cells {
			t.Fatalf("%d cells: cross delivered %d, local %d", tc.cells, len(ccol.times), len(lcol.times))
		}
		for i := range lcol.times {
			if ccol.times[i] != lcol.times[i] || ccol.cells[i].VCI != lcol.cells[i].VCI {
				t.Fatalf("%d cells, cell %d: cross (%v, %d) vs local (%v, %d)",
					tc.cells, i, ccol.times[i], ccol.cells[i].VCI, lcol.times[i], lcol.cells[i].VCI)
			}
		}
	}
}

func TestCrossLinkLookaheadRegistered(t *testing.T) {
	// A group refuses to run an exchange whose pair has no lookahead
	// (sim's TestShardPairLookaheadValidation), so a run over cross links
	// alone completes only if each registered its own: the run is the
	// check. Each cell lands a cell time and a propagation after it leaves.
	root := sim.New(1)
	dst := root.NewShard()
	there, back := &collector{}, &collector{}
	x := NewCrossLink(root, dst, "x", LinkParams{CellTime: 3 * us, Propagation: 1 * us}, there)
	y := NewCrossLink(dst, root, "y", LinkParams{CellTime: 9 * us, Propagation: 1 * us}, back)
	root.At(0, func() { x.Send(atm.Cell{}) })
	dst.At(0, func() { y.Send(atm.Cell{}) })
	root.Run()
	if !slices.Equal(there.times, []time.Duration{4 * us}) || !slices.Equal(back.times, []time.Duration{10 * us}) {
		t.Fatalf("arrivals %v and %v, want [4µs] and [10µs]", there.times, back.times)
	}
}

func TestCrossLinkPerPairLookahead(t *testing.T) {
	// Two host shards hang off the root: s1 over fast 4µs links (which stay
	// silent), s2 over slow 100µs links carrying an echo workload. The fast
	// links make the window 4µs wide, but each round starts at the group's
	// next event, so a slow flight costs a round at each end, not the ~25
	// of 4µs windows stepped through its idle middle.
	fast := LinkParams{CellTime: 3 * us, Propagation: 1 * us}
	slow := LinkParams{CellTime: 3 * us, Propagation: 97 * us}
	root := sim.New(1)
	s1 := root.NewShard()
	s2 := root.NewShard()
	g := root.Group()

	NewCrossLink(root, s1, "f-down", fast, &collector{})
	NewCrossLink(s1, root, "f-up", fast, &collector{})
	var echoes []string
	up2 := NewCrossLink(s2, root, "s-up", slow, &echoSink{e: root, log: &echoes, name: "rt"})
	down2 := NewCrossLink(root, s2, "s-down", slow, nil)
	down2.peer.sink = &echoSink{e: s2, up: up2, reply: 7, log: &echoes, name: "s2"}

	const trips = 10
	for i := 0; i < trips; i++ {
		at := time.Duration(i) * 500 * time.Microsecond
		root.At(at, func() {
			var c atm.Cell
			c.VCI = 5
			down2.Send(c)
		})
	}
	root.Run()

	if len(echoes) != 2*trips {
		t.Fatalf("delivered %d cells, want %d", len(echoes), 2*trips)
	}
	prof := g.Profile()
	perShard := prof.Total().Windows / uint64(len(prof.Shards))
	if perShard > 400 {
		t.Fatalf("ran %d rounds per shard; 4µs windows stepped through the idle flights would need ~1250", perShard)
	}
}

func TestCrossLinkRejectsBadEndpoints(t *testing.T) {
	root := sim.New(1)
	dst := root.NewShard()
	other := sim.New(3) // not in the group
	for _, tc := range []struct {
		name   string
		src, d *sim.Engine
	}{
		{"foreign src", other, dst},
		{"foreign dst", root, other},
		{"same shard", root, root},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCrossLink did not panic", tc.name)
				}
			}()
			NewCrossLink(tc.src, tc.d, "x", DefaultLinkParams(), &collector{})
		}()
	}
}

func TestSwitchRejectsForeignShardLink(t *testing.T) {
	root := sim.New(1)
	s1 := root.NewShard()
	l := NewLink(s1, "l", DefaultLinkParams(), &collector{})
	defer func() {
		if recover() == nil {
			t.Fatal("switch accepted an output link transmitting on another shard")
		}
	}()
	NewSwitchWithLinks(root, "sw", DefaultSwitchLatency, []*Link{l})
}

// runTie wires three hosts to one switch and has hosts 0 and 1 fire bursts
// of cells at host 2 timed so that both bursts reach the switch at the same
// instants and contend for host 2's output port: which goes first is a
// simulated result. up0 and up1 are the two senders' uplink timings; the
// host on the slower fiber sends earlier by the difference in flight time.
// A burst is three cells, handed to the uplink pace apart (0: all at once,
// a back-to-back train). With sharded set, hosts 0 and 1 each live on their
// own shard. It returns host 2's delivery log.
func runTie(sharded bool, up0, up1 LinkParams, pace time.Duration) []string {
	root := sim.New(1)
	eng := []*sim.Engine{root, root, root}
	if sharded {
		eng[0], eng[1] = root.NewShard(), root.NewShard()
	}
	link := func(src, dst *sim.Engine, name string, lp LinkParams, sink CellSink) *Link {
		if src != dst {
			return NewCrossLink(src, dst, name, lp, sink)
		}
		return NewLink(src, name, lp, sink)
	}
	rec := &collector{}
	sinks := []CellSink{SinkFunc(func(atm.Cell) {}), SinkFunc(func(atm.Cell) {}), rec}
	out := make([]*Link, 3)
	for i := range out {
		out[i] = link(root, eng[i], fmt.Sprintf("tie.port%d", i), DefaultLinkParams(), sinks[i])
	}
	sw := NewSwitchWithLinks(root, "tie.sw", DefaultSwitchLatency, out)
	ups := []*Link{
		link(eng[0], root, "tie.up0", up0, sw.PortSink(0)),
		link(eng[1], root, "tie.up1", up1, sw.PortSink(1)),
	}
	sw.Route(0, 40, 2)
	sw.Route(1, 41, 2)

	flight := func(lp LinkParams) time.Duration { return lp.CellTime + lp.Propagation }
	slowest := max(flight(up0), flight(up1))
	for h, lp := range []LinkParams{up0, up1} {
		for b := 0; b < 20; b++ {
			for k := 0; k < 3; k++ {
				// Cell k of every burst arrives at b×100µs + k×pace + slowest
				// (later if it queues behind its predecessor).
				at := time.Duration(b)*100*us + time.Duration(k)*pace + slowest - flight(lp)
				eng[h].At(at, func() {
					var c atm.Cell
					c.VCI = atm.VCI(40 + h)
					c.Payload[0] = byte(3*b + k)
					ups[h].Send(c)
				})
			}
		}
	}
	root.Run()
	log := make([]string, len(rec.cells))
	for i, c := range rec.cells {
		log[i] = fmt.Sprintf("%v vci=%d seq=%d", rec.times[i], c.VCI, c.Payload[0])
	}
	return log
}

// testTie checks that the sharded run resolves every tie the way the
// serial run does, 200 times over: the order must be a function of the
// simulation, not of which shard's goroutine ran first or which round
// drained which ring.
func testTie(t *testing.T, up0, up1 LinkParams, pace time.Duration) {
	t.Helper()
	serial := runTie(false, up0, up1, pace)
	if len(serial) != 120 {
		t.Fatalf("serial run delivered %d cells to host 2, want 120", len(serial))
	}
	for trial := 0; trial < 200; trial++ {
		if got := runTie(true, up0, up1, pace); !slices.Equal(got, serial) {
			for i := range serial {
				if i >= len(got) || got[i] != serial[i] {
					t.Fatalf("trial %d: delivery %d differs (sharded run delivered %d cells):\n  serial : %s\n  sharded: %v",
						trial, i, len(got), serial[i], got[i:min(i+1, len(got))])
				}
			}
			t.Fatalf("trial %d: sharded run delivered %d cells, serial %d", trial, len(got), len(serial))
		}
	}
}

func TestShardedTieMatchesSerial(t *testing.T) {
	// Equal fibers: the tied cells were sent at the same instant too, and
	// the serial run serves host 0 first because its link was wired first.
	testTie(t, DefaultLinkParams(), DefaultLinkParams(), 0)
}

func TestShardedTieUnequalLatencyMatchesSerial(t *testing.T) {
	// One fiber is 1.5µs longer, so its tied cells left earlier and the
	// serial run serves that host first — whichever host it is, although
	// host 0's link is always the one wired first.
	long := DefaultLinkParams()
	long.Propagation += 1500 * time.Nanosecond
	testTie(t, long, DefaultLinkParams(), 0)
	testTie(t, DefaultLinkParams(), long, 0)
	a, b := runTie(false, long, DefaultLinkParams(), 0), runTie(false, DefaultLinkParams(), long, 0)
	if a[0] == b[0] {
		t.Fatalf("swapping the fibers did not change who is served first: %s", a[0])
	}
	// Paced 5µs apart, every cell goes onto the short fiber 1.6µs after its
	// predecessor came off it: the transmitter's shard may already have sent
	// it when the receiving shard delivers the predecessor, or not yet. The
	// tied cell on the long fiber left in between those two instants, so the
	// short fiber's delivery must be filed under its own send time either way.
	testTie(t, long, DefaultLinkParams(), 5*us)
	testTie(t, DefaultLinkParams(), long, 5*us)
}

// vciLog is a CellSink that keeps the VCIs it was handed and their arrival
// times (the cells themselves are the link's to reuse once DeliverTrain
// returns).
type vciLog struct {
	vcis []atm.VCI
	at   []time.Duration
}

func (v *vciLog) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	for i, c := range cells {
		v.vcis = append(v.vcis, c.VCI)
		v.at = append(v.at, first+time.Duration(i)*spacing)
	}
}

// TestTrainScratchIsPerEngine: two links on one engine whose trains land
// at the same instant each hand their sink their own cells in order, and
// a train on the second allocates nothing. A cross link's 200-cell train,
// longer than a ring chunk, reaches a sink that is not a RunSink whole, in
// order and at each cell's arrival time, a chunk at a time.
func TestTrainScratchIsPerEngine(t *testing.T) {
	lp := LinkParams{CellTime: 1 * us, Propagation: 1 * us}
	root := sim.New(1)
	var logX vciLog
	cross := NewCrossLink(root, root.NewShard(), "x", lp, &logX)
	run := make([]atm.Cell, 200)
	for i := range run {
		run[i].VCI = atm.VCI(i)
	}
	cross.SendRun(run, 0, 0)
	root.Run()
	for i, v := range logX.vcis {
		// Cell i leaves the transmitter at (i+1) µs and flies 1 µs.
		if v != atm.VCI(i) || logX.at[i] != time.Duration(i+2)*us {
			t.Fatalf("the cross link delivered VCI %d at position %d, arriving at %v", v, i, logX.at[i])
		}
	}
	if len(logX.vcis) != len(run) {
		t.Fatalf("the cross link delivered %d of %d cells", len(logX.vcis), len(run))
	}

	solo := sim.New(1)
	var logC, logD vciLog
	c := NewLink(solo, "c", lp, &logC)
	d := NewLink(solo, "d", lp, &logD)
	send := func(l *Link, base, n int) {
		for i := 0; i < n; i++ {
			l.Send(atm.Cell{VCI: atm.VCI(base + i)})
		}
	}
	send(c, 100, 20)
	send(d, 200, 12) // both trains' heads arrive at 2 µs
	solo.Run()
	for i, v := range logC.vcis {
		if v != atm.VCI(100+i) {
			t.Fatalf("link c delivered VCI %d at position %d", v, i)
		}
	}
	for i, v := range logD.vcis {
		if v != atm.VCI(200+i) {
			t.Fatalf("link d delivered VCI %d at position %d", v, i)
		}
	}
	if len(logC.vcis) != 20 || len(logD.vcis) != 12 {
		t.Fatalf("delivered %d and %d cells, want 20 and 12", len(logC.vcis), len(logD.vcis))
	}
	if n := testing.AllocsPerRun(10, func() {
		logD.vcis, logD.at = logD.vcis[:0], logD.at[:0]
		send(d, 200, 20)
		solo.Run()
	}); n != 0 {
		t.Errorf("a 20-cell train on link d allocated %v times, want 0", n)
	}
}
