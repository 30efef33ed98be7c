package fabric

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// stampedLink is the in-flight machinery a Link had before it stamped runs
// instead of cells: every cell on the wire carries its own arrival time in a
// ring of inflight records, and fire scans the stamps from the front for the
// back-to-back run it delivers. It is the oracle of TestRunsMatchStampedScan.
type stampedLink struct {
	e          *sim.Engine
	p          LinkParams
	sink       CellSink
	nextFree   time.Duration
	inj        Injector
	lastArrive time.Duration
	scratch    atm.Cell
	pend       sim.Ring[inflight]
	armed      bool
	train      []atm.Cell

	peer *stampedLink
	out  []inflight
	rx   *crossRx
}

func newStampedLink(e *sim.Engine, p LinkParams, sink CellSink) *stampedLink {
	return &stampedLink{e: e, p: p, sink: sink, pend: sim.NewRing[inflight](e)}
}

func newStampedCrossLink(src, dst *sim.Engine, p LinkParams, sink CellSink) *stampedLink {
	peer := &stampedLink{e: dst, p: p, sink: sink, rx: &crossRx{}, pend: sim.NewRing[inflight](dst)}
	l := &stampedLink{e: src, p: p, peer: peer}
	g := src.Group()
	peer.rx.index = g.AddExchangeFrom(src, dst, stampedExchange{l})
	g.ObserveLookaheadBetween(src, dst, p.CellTime+p.Propagation)
	return l
}

type stampedExchange struct{ l *stampedLink }

func (x stampedExchange) Drain() {
	peer := x.l.peer
	for _, f := range x.l.out {
		peer.pend.Push(f)
	}
	x.l.out = x.l.out[:0]
	if peer.pend.Len() > 0 && !peer.armed {
		peer.armed = true
		peer.armArrival(peer.rx.idle)
	}
}

func (l *stampedLink) SetInjector(inj Injector) { l.inj = inj }

// SendRun hands cells[i] to SendAt for a start of start + i*spacing.
func (l *stampedLink) SendRun(cells []atm.Cell, start, spacing time.Duration) {
	for i, c := range cells {
		l.SendAt(c, start+time.Duration(i)*spacing)
	}
}

func (l *stampedLink) SendAt(c atm.Cell, start time.Duration) time.Duration {
	if now := l.e.Now(); start < now {
		start = now
	}
	if l.nextFree > start {
		start = l.nextFree
	}
	depart := start + l.p.CellTime
	l.nextFree = depart
	if l.inj != nil {
		l.scratch = c
		v := l.inj.Judge(&l.scratch, depart)
		if v.Drop {
			return depart
		}
		arrive := max(depart+l.p.Propagation+v.Delay, l.lastArrive)
		l.lastArrive = arrive
		l.enqueue(l.scratch, arrive)
		if v.Duplicate {
			l.lastArrive = arrive + l.p.CellTime
			l.enqueue(l.scratch, l.lastArrive)
		}
		return depart
	}
	l.enqueue(c, depart+l.p.Propagation)
	return depart
}

func (l *stampedLink) enqueue(c atm.Cell, arrive time.Duration) {
	if l.peer != nil {
		l.out = append(l.out, inflight{c: c, arrive: arrive, lead: uint32(min(arrive-l.e.Now(), maxLead))})
		return
	}
	l.pend.Push(inflight{c: c, arrive: arrive})
	if !l.armed {
		l.armed = true
		l.e.AtArg(arrive, stampedFire, l)
	}
}

func stampedFire(a any) { a.(*stampedLink).fire() }

// fire gathers the cells stamped now, now+CellTime, … from the front of
// the ring into the scratch, sized to every cell in flight, and delivers
// them as one train.
func (l *stampedLink) fire() {
	now := l.e.Now()
	if n := l.pend.Len(); len(l.train) < n {
		l.train = make([]atm.Cell, max(n, 2*len(l.train)))
	}
	train, k := l.train, 0
	for next := now; l.pend.Len() > 0; {
		span, m := l.pend.Span(l.pend.Len()), 0
		for m < len(span) && span[m].arrive == next {
			train[k+m] = span[m].c
			m++
			next += l.p.CellTime
		}
		l.pend.Drop(m)
		if k += m; m < len(span) {
			break
		}
	}
	l.rearm()
	l.sink.DeliverTrain(train[:k], now, l.p.CellTime)
}

func (l *stampedLink) rearm() {
	switch {
	case l.pend.Len() == 0:
		l.armed = false
		if l.rx != nil {
			l.rx.idle = l.e.Now()
		}
	case l.rx != nil:
		l.armArrival(l.e.Now())
	default:
		l.e.AtArg(l.pend.Front().arrive, stampedFire, l)
	}
}

func (l *stampedLink) armArrival(prev time.Duration) {
	head := l.pend.Front()
	sent := head.arrive - time.Duration(head.lead)
	l.e.ArriveArg(head.arrive, max(prev, sent), l.rx.index, stampedFire, l)
}

// trainRec is one DeliverTrain call as its sink saw it.
type trainRec struct {
	at, first, spacing time.Duration
	ids                []int
}

// trainLog records every train it is handed and, when bounce is set, sends
// every cell whose id is a multiple of 5 back onto that link at its own
// arrival, under a new id, from inside DeliverTrain.
type trainLog struct {
	e      *sim.Engine
	trains []trainRec
	bounce sender
}

// sender is what Link and stampedLink share.
type sender interface {
	SendRun(cells []atm.Cell, start, spacing time.Duration)
	SetInjector(Injector)
}

func (g *trainLog) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	r := trainRec{at: g.e.Now(), first: first, spacing: spacing}
	for i, c := range cells {
		id := cellID(c)
		r.ids = append(r.ids, id)
		if g.bounce != nil && id < bounced && id%5 == 0 {
			g.bounce.SendRun([]atm.Cell{idCell(id + bounced)}, first+time.Duration(i)*spacing, 0)
		}
	}
	g.trains = append(g.trains, r)
}

// DeliverRun records a train that straddles ring chunks as one, the way
// the switch and the NIC read it.
func (g *trainLog) DeliverRun(r *sim.Ring[atm.Cell], n int, first, spacing time.Duration) {
	cells := make([]atm.Cell, n)
	w := r.Walk(n)
	w.Read(cells)
	g.DeliverTrain(cells, first, spacing)
}

// bounced is added to the id of a cell a trainLog sends back.
const bounced = 10000

// sendAt is a one-cell SendRun call: made in an event at at, for a start of
// start.
type sendAt struct {
	at, start time.Duration
	id        int
}

// stampedSchedule draws one seeded schedule of bursts and their verdicts.
// Bursts may start while the one before is still in flight, so runs join
// across them, unless apart is set: then each starts after everything
// before it has arrived, so no run spans two send events.
func stampedSchedule(rng *rand.Rand, lp LinkParams, apart bool) ([]sendAt, verdicts) {
	const maxDelay = 4 * us
	v := verdicts{}
	var sends []sendAt
	at, id := time.Duration(0), 0
	for b, bursts := 0, 4+rng.Intn(6); b < bursts; b++ {
		n := 1 + rng.Intn(30)
		clean := rng.Intn(8) == 0
		if clean {
			n = 129 + rng.Intn(200) // longer than the largest chunk
		}
		start, gapped := at, rng.Intn(3) == 0
		for k := 0; k < n; k++ {
			if gapped {
				start += time.Duration(rng.Intn(3)) * lp.CellTime / 2
			}
			var verdict Verdict
			switch r := rng.Float64(); {
			case clean:
			case r < 0.05:
				verdict.Drop = true
			case r < 0.1:
				verdict.Duplicate = true
			case r < 0.15:
				verdict.Delay = time.Duration(rng.Int63n(int64(maxDelay)))
			case r < 0.2:
				verdict.Delay = time.Duration(1+rng.Intn(3)) * lp.CellTime
			}
			v[id] = verdict
			sends = append(sends, sendAt{at: at, start: start, id: id})
			id++
		}
		switch {
		case apart:
			at = start + time.Duration(3*n)*lp.CellTime + lp.Propagation + maxDelay + time.Duration(1+rng.Intn(20))*us
		case rng.Intn(3) == 0:
			at += time.Duration(rng.Intn(n)) * lp.CellTime // while this burst is on the wire
		default:
			at = start + time.Duration(rng.Intn(4*n+8))*lp.CellTime
		}
	}
	return sends, v
}

// TestRunsMatchStampedScan: a link that stamps back-to-back runs as cells
// are staged hands its sink exactly the trains the per-cell-stamped scan
// gave — the same instant, first, spacing and cells in every DeliverTrain
// call — over 200 seeded schedules with gaps, drops, duplicates, delays and
// runs longer than the largest chunk, on a local link whose sink sends
// cells back onto it mid-delivery, and on a cross link.
func TestRunsMatchStampedScan(t *testing.T) {
	lp := LinkParams{CellTime: 1 * us, Propagation: 500 * time.Nanosecond}
	var multi, long int
	check := func(seed int64, kind string, got, want []trainRec) {
		t.Helper()
		for i := range want {
			if i >= len(got) || got[i].at != want[i].at || got[i].first != want[i].first || got[i].spacing != want[i].spacing || !slices.Equal(got[i].ids, want[i].ids) {
				t.Fatalf("seed %d, %s link: train %d of %d is %+v, the stamped scan gave %+v", seed, kind, i, len(want), got[i:min(i+1, len(got))], want[i])
			}
			if n := len(want[i].ids); n > 1 {
				multi++
				if n > 128 {
					long++
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d, %s link: %d trains, the stamped scan gave %d", seed, kind, len(got), len(want))
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		sends, v := stampedSchedule(rand.New(rand.NewSource(seed)), lp, false)
		local := func(stamped bool) []trainRec {
			e := sim.New(1)
			log := &trainLog{e: e}
			var l sender
			if stamped {
				l = newStampedLink(e, lp, log)
			} else {
				l = NewLink(e, "l", lp, log)
			}
			log.bounce = l
			l.SetInjector(v)
			for _, s := range sends {
				e.At(s.at, func() { l.SendRun([]atm.Cell{idCell(s.id)}, s.start, 0) })
			}
			e.Run()
			return log.trains
		}
		check(seed, "local", local(false), local(true))

		sends, v = stampedSchedule(rand.New(rand.NewSource(seed)), lp, true)
		cross := func(stamped bool) []trainRec {
			root := sim.New(1)
			dst := root.NewShard()
			log := &trainLog{e: dst}
			var l sender
			if stamped {
				l = newStampedCrossLink(root, dst, lp, log)
			} else {
				l = NewCrossLink(root, dst, "x", lp, log)
			}
			l.SetInjector(v)
			for _, s := range sends {
				root.At(s.at, func() { l.SendRun([]atm.Cell{idCell(s.id)}, s.start, 0) })
			}
			root.Run()
			return log.trains
		}
		check(seed, "cross", cross(false), cross(true))
	}
	if multi == 0 || long == 0 {
		t.Fatalf("the schedules delivered %d multi-cell trains, %d of them longer than a chunk: they test nothing", multi, long)
	}
}

// TestRunInOneChunkIsHandedOverInPlace: a run that lies in one chunk of the
// in-flight ring reaches the sink as that chunk's memory and allocates
// nothing. One SendRun on an idle link queues its run into a chunk sized
// for it, up to the largest chunk's 128 cells, and a cross link's receive
// half takes a published train with one Room call, so a 1 KB message's 22
// cells arrive in place either way. A longer run straddles chunks, and a
// switch port reads it off the ring where it lies and passes it on as one
// run to the RunSink beyond it. (nic's TestStraddlingRunReachesTheNICInPlace
// runs one into a NIC.)
func TestRunInOneChunkIsHandedOverInPlace(t *testing.T) {
	e := sim.New(1)
	lp := LinkParams{CellTime: 1 * us, Propagation: 1 * us}
	sink := &inPlace{}
	l := NewLink(e, "l", lp, sink)
	sink.l = l
	send := func() {
		for i := 0; i < 4; i++ { // the ring's first chunk holds 4
			l.Send(idCell(i))
		}
		e.Run()
	}
	send()
	if n := testing.AllocsPerRun(10, send); n != 0 {
		t.Errorf("a 4-cell run allocated %v times per delivery", n)
	}
	if sink.trains != 12 || sink.copied != 0 {
		t.Errorf("%d of %d trains were copied before delivery, want 0 of 12", sink.copied, sink.trains)
	}
	for _, n := range []int{22, 128} {
		*sink = inPlace{l: l}
		l.SendRun(make([]atm.Cell, n), e.Now(), 0)
		e.Run()
		if sink.trains != 1 || sink.cells != n || sink.copied != 0 {
			t.Errorf("a %d-cell SendRun reached the sink as %d trains of %d cells in all, %d of them copied; want one in place", n, sink.trains, sink.cells, sink.copied)
		}
	}

	root := sim.New(1)
	dst := root.NewShard()
	far := &inPlace{}
	x := NewCrossLink(root, dst, "x", lp, far)
	far.l = x.peer
	x.SendRun(make([]atm.Cell, 22), 0, 0)
	root.Run()
	if far.trains != 1 || far.cells != 22 || far.copied != 0 {
		t.Errorf("a 22-cell train through a cross link reached the sink as %d trains of %d cells in all, %d copied; want one in place", far.trains, far.cells, far.copied)
	}

	// 200 cells up a link into switch port 0 and out of port 1: both
	// links' rings hold the run in two chunks.
	se := sim.New(1)
	out := &runLog{}
	sw := NewSwitch(se, "sw", 2, 2*us, lp, []CellSink{&vciLog{}, out})
	if err := sw.Route(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	up := NewLink(se, "up", lp, sw.PortSink(0))
	cells := make([]atm.Cell, 200)
	for i := range cells {
		cells[i].VCI = 5
	}
	up.SendRun(cells, 0, 0)
	se.Run()
	if out.runs != 1 || out.cells != 200 {
		t.Errorf("the switch forwarded the 200-cell run as %d runs off the ring of %d cells in all, want one", out.runs, out.cells)
	}
}

// runLog is a RunSink that counts the trains it reads off a ring.
type runLog struct{ runs, cells int }

func (g *runLog) DeliverTrain(cells []atm.Cell, _, _ time.Duration) {}

func (g *runLog) DeliverRun(r *sim.Ring[atm.Cell], n int, _, _ time.Duration) {
	g.runs++
	for w := r.Walk(n); ; {
		seg := w.Next(n)
		if len(seg) == 0 {
			break
		}
		g.cells += len(seg)
	}
}

// inPlace counts the trains it is handed, their cells, and the trains that
// are not the front of its link's in-flight ring.
type inPlace struct {
	l                     *Link
	trains, cells, copied int
}

func (s *inPlace) DeliverTrain(cells []atm.Cell, _, _ time.Duration) {
	s.trains++
	s.cells += len(cells)
	if front := s.l.pend.Span(len(cells)); len(front) != len(cells) || &front[0] != &cells[0] {
		s.copied++
	}
}
