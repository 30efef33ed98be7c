package faults_test

import (
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/faults"
	"unet/internal/sim"
)

func cellSeq(n int) []atm.Cell {
	cells := make([]atm.Cell, n)
	for i := range cells {
		cells[i].VCI = atm.VCI(64 + i%4)
		cells[i].Payload[0] = byte(i)
		cells[i].EOP = true
	}
	return cells
}

// judgeAll runs cells through inj at one-cell spacing and returns the
// verdicts.
func judgeAll(inj fabric.Injector, cells []atm.Cell) []fabric.Verdict {
	out := make([]fabric.Verdict, len(cells))
	for i := range cells {
		c := cells[i]
		out[i] = inj.Judge(&c, time.Duration(i)*fabric.DefaultCellTime)
	}
	return out
}

// TestSeededStreamsAreReproducible pins the determinism contract: the
// same seed and link name reproduce the exact verdict sequence, and a
// different link name yields an independent stream.
func TestSeededStreamsAreReproducible(t *testing.T) {
	cells := cellSeq(4000)
	a := judgeAll(faults.NewIID(7, "atm.up0", 0.05), cells)
	b := judgeAll(faults.NewIID(7, "atm.up0", 0.05), cells)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs between identically-seeded injectors: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Drop {
			drops++
		}
	}
	if drops == 0 || drops > 4000/5 {
		t.Fatalf("5%% i.i.d. loss dropped %d of 4000 cells", drops)
	}
	c := judgeAll(faults.NewIID(7, "atm.up1", 0.05), cells)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different link names produced identical fault streams")
	}
}

// TestGilbertElliottIsBursty checks that with a lossy bad state the
// drops cluster into runs instead of being scattered i.i.d.: the number
// of distinct loss runs must be well below the number of lost cells.
func TestGilbertElliottIsBursty(t *testing.T) {
	ge := faults.NewGilbertElliott(3, "atm.up0", 0.01, 0.25, 0, 1)
	v := judgeAll(ge, cellSeq(20000))
	losses, runs := 0, 0
	prev := false
	for _, w := range v {
		if w.Drop {
			losses++
			if !prev {
				runs++
			}
		}
		prev = w.Drop
	}
	if losses == 0 {
		t.Fatal("burst model produced no loss")
	}
	if runs*2 > losses {
		t.Fatalf("loss not bursty: %d losses in %d runs (mean run %.2f, want ≥ 2)", losses, runs, float64(losses)/float64(runs))
	}
}

// TestCorruptorHeaderDamageIsCaughtByHEC: every single-bit header flip
// must be rejected by the real HEC/format codec, i.e. surface as a drop.
func TestCorruptorHeaderDamageIsCaughtByHEC(t *testing.T) {
	co := faults.NewCorruptor(9, "atm.up0", 0, 1)
	v := judgeAll(co, cellSeq(2000))
	st := co.Stats()
	if st.HdrDamage != 2000 {
		t.Fatalf("HdrDamage = %d, want 2000", st.HdrDamage)
	}
	for i, w := range v {
		if !w.Drop {
			t.Fatalf("cell %d: header bit flip not caught by the HEC codec", i)
		}
	}
}

// TestCorruptorPayloadFlipsOneBit: payload corruption must change
// exactly one bit and be delivered (the AAL5 CRC's job, not the wire's).
func TestCorruptorPayloadFlipsOneBit(t *testing.T) {
	co := faults.NewCorruptor(9, "atm.up0", 1, 0)
	c := atm.Cell{VCI: 64}
	orig := c.Payload
	v := co.Judge(&c, 0)
	if v.Drop || v.Duplicate || v.Delay != 0 {
		t.Fatalf("payload corruption changed the verdict: %+v", v)
	}
	diff := 0
	for i := range c.Payload {
		for b := 0; b < 8; b++ {
			if (c.Payload[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("payload corruption flipped %d bits, want 1", diff)
	}
}

// TestFlapSchedule pins the arithmetic down-window: offset 1ms, down
// 200µs of every 1ms.
func TestFlapSchedule(t *testing.T) {
	fl := faults.NewFlap(time.Millisecond, 200*time.Microsecond, time.Millisecond)
	for _, tc := range []struct {
		at   time.Duration
		down bool
	}{
		{0, false},
		{999 * time.Microsecond, false},
		{time.Millisecond, true},
		{1199 * time.Microsecond, true},
		{1200 * time.Microsecond, false},
		{2100 * time.Microsecond, true},
	} {
		if got := fl.Down(tc.at); got != tc.down {
			t.Errorf("Down(%v) = %v, want %v", tc.at, got, tc.down)
		}
	}
}

// TestNthCellDropsExactlyOne: the deterministic probe drops cell n and
// nothing else.
func TestNthCellDropsExactlyOne(t *testing.T) {
	in := faults.NewNthCell(5)
	v := judgeAll(in, cellSeq(10))
	for i, w := range v {
		if w.Drop != (i == 4) {
			t.Fatalf("cell %d: drop = %v", i+1, w.Drop)
		}
	}
	if st := in.Stats(); st.Dropped != 1 || st.Cells != 10 {
		t.Fatalf("stats = %+v, want 1 drop of 10 cells", st)
	}
}

// TestChainShortCircuitAndPerVCI: a drop consumes the cell before later
// models see it; the cell before it on another VCI and the one after it on
// the same VCI go on through the chain.
func TestChainShortCircuitAndPerVCI(t *testing.T) {
	dup := faults.NewDuplicator(1, "l", 1) // would duplicate every cell it sees
	ch := faults.NewChain(faults.NewNthCell(2), dup)
	cells := []atm.Cell{{VCI: 70}, {VCI: 65}, {VCI: 65}}
	v := judgeAll(ch, cells)
	if !v[1].Drop {
		t.Fatal("chain lost the NthCell drop")
	}
	if v[1].Duplicate {
		t.Fatal("dropped cell was still judged by the duplicator")
	}
	if !v[0].Duplicate || !v[2].Duplicate {
		t.Fatal("surviving cells were not duplicated")
	}
	st := ch.Stats()
	if st.Cells != 3 || st.Dropped != 1 || st.Duplicate != 2 {
		t.Fatalf("chain stats = %+v", st)
	}
}

// TestPlanBuild: the zero plan builds nothing; an enabled plan builds a
// chain whose streams differ per link but reproduce per seed.
func TestPlanBuild(t *testing.T) {
	if ch := (faults.Plan{}).Build("atm.up0"); ch != nil {
		t.Fatal("zero plan built an injector chain")
	}
	pl := faults.Plan{Seed: 11, LossRate: 0.02, DupRate: 0.01, CorruptRate: 0.01}
	cells := cellSeq(5000)
	a := judgeAll(pl.Build("atm.up0"), cells)
	b := judgeAll(pl.Build("atm.up0"), cells)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan-built chains disagree at cell %d", i)
		}
	}
}

// sinkRec records per-cell deliveries with their arrival times.
type sinkRec struct {
	cells []atm.Cell
	times []time.Duration
}

func (s *sinkRec) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	for i, c := range cells {
		s.cells = append(s.cells, c)
		s.times = append(s.times, first+time.Duration(i)*spacing)
	}
}

// TestLinkInjectorIntegration drives a real fabric link: duplication
// delivers an extra copy, jitter delays without reordering, and drops
// are counted as CellsLost.
func TestLinkInjectorIntegration(t *testing.T) {
	e := sim.New(1)
	rec := &sinkRec{}
	l := fabric.NewLink(e, "l", fabric.DefaultLinkParams(), rec)

	// Drop cell 2, duplicate everything that survives, jitter cell 3 (the
	// jitter stream is seeded so we only assert ordering, not exact times).
	l.SetInjector(faults.NewChain(
		faults.NewNthCell(2),
		faults.NewDuplicator(5, "l", 1),
		faults.NewJitter(5, "l", 0.5, 10*time.Microsecond),
	))
	cells := cellSeq(6)
	e.At(0, func() {
		for i := range cells {
			l.Send(cells[i])
		}
	})
	e.Run()

	if got := l.Stats().CellsLost; got != 1 {
		t.Fatalf("CellsLost = %d, want 1", got)
	}
	if got := l.Stats().CellsDuplicated; got != 5 {
		t.Fatalf("CellsDuplicated = %d, want 5", got)
	}
	if len(rec.cells) != 10 { // 5 survivors × 2 copies
		t.Fatalf("delivered %d cells, want 10", len(rec.cells))
	}
	for i := 1; i < len(rec.times); i++ {
		if rec.times[i] < rec.times[i-1] {
			t.Fatalf("arrivals reordered: %v after %v", rec.times[i], rec.times[i-1])
		}
	}
	// Survivor payload order must be preserved: 0,0,2,2,3,3,...
	want := []byte{0, 0, 2, 2, 3, 3, 4, 4, 5, 5}
	for i, c := range rec.cells {
		if c.Payload[0] != want[i] {
			t.Fatalf("delivery %d carries payload %d, want %d", i, c.Payload[0], want[i])
		}
	}
}

// TestSwitchTailDrop bounds an output queue and overruns it from two
// input ports at once: the overflow must be tail-dropped and counted,
// and the survivors delivered intact.
func TestSwitchTailDrop(t *testing.T) {
	e := sim.New(1)
	rec := &sinkRec{}
	lp := fabric.DefaultLinkParams()
	sw := fabric.NewSwitch(e, "sw", 2, time.Microsecond, lp, []fabric.CellSink{rec, fabric.SinkFunc(func(atm.Cell) {})})
	if err := sw.Route(0, 64, 0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route(1, 64, 0); err != nil {
		t.Fatal(err)
	}
	sw.SetOutputQueueCells(4)

	// Two uplinks blast 32 cells each into port 0 simultaneously; the
	// output link serializes one cell per CellTime, so the 4-cell queue
	// must overflow.
	upA := fabric.NewLink(e, "upA", lp, sw.PortSink(0))
	upB := fabric.NewLink(e, "upB", lp, sw.PortSink(1))
	e.At(0, func() {
		for i := 0; i < 32; i++ {
			upA.Send(atm.Cell{VCI: 64})
			upB.Send(atm.Cell{VCI: 64})
		}
	})
	e.Run()

	drops := sw.QueueDrops(0)
	if drops == 0 {
		t.Fatal("no tail drops despite a 4-cell queue under 2:1 overload")
	}
	if got := uint64(len(rec.cells)) + drops; got != 64 {
		t.Fatalf("delivered %d + dropped %d ≠ 64 offered", len(rec.cells), drops)
	}
	if sw.TotalQueueDrops() != drops {
		t.Fatalf("TotalQueueDrops = %d, want %d", sw.TotalQueueDrops(), drops)
	}
}
