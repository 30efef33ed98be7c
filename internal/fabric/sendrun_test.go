package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// sendAtPerCell is the per-cell transmit SendRun replaced, kept as the
// oracle of TestSendRunMatchesPerCell: c is handed to the transmitter at
// start (never before now), leaves one CellTime after the transmitter is
// free, and is judged by the injector, if any, at its departure.
func sendAtPerCell(l *Link, c atm.Cell, start time.Duration) {
	start = max(start, l.e.Now(), l.nextFree)
	depart := start + l.p.CellTime
	l.nextFree = depart
	l.stats.CellsSent++
	if m := l.imp; m != nil && m.inj != nil {
		m.scratch = c
		v := m.inj.Judge(&m.scratch, depart)
		if v.Drop {
			l.stats.CellsLost++
			return
		}
		arrive := max(depart+l.p.Propagation+v.Delay, m.lastArrive)
		m.lastArrive = arrive
		l.enqueue(&m.scratch, arrive)
		if v.Duplicate {
			l.stats.CellsDuplicated++
			m.lastArrive = arrive + l.p.CellTime
			l.enqueue(&m.scratch, m.lastArrive)
		}
		return
	}
	l.enqueue(&c, depart+l.p.Propagation)
}

// perCell is a Link whose SendRun is the per-cell oracle loop.
type perCell struct{ *Link }

func (p perCell) SendRun(cells []atm.Cell, start, spacing time.Duration) {
	for i := range cells {
		sendAtPerCell(p.Link, cells[i], start+time.Duration(i)*spacing)
	}
}

// forwardPerCell is the per-cell tail-drop loop Switch.forward replaced.
func forwardPerCell(s *Switch, l *Link, port int, cells []atm.Cell, t, spacing time.Duration) {
	qlimit := time.Duration(s.qcells) * l.p.CellTime
	for i := range cells {
		if qlimit > 0 && l.NextFree()-t >= qlimit {
			s.qdrops[port]++
		} else {
			sendAtPerCell(l, cells[i], t)
		}
		t += spacing
	}
}

// drawnFaults is a stateful injector: each Judge call draws the next
// verdict — loss, duplication or jitter — from its own seeded stream and
// logs the cell and departure it was asked about, so two links judge alike
// only if they ask the same questions in the same order.
type drawnFaults struct {
	rng *rand.Rand
	log []string
}

func (f *drawnFaults) Judge(c *atm.Cell, depart time.Duration) Verdict {
	f.log = append(f.log, fmt.Sprintf("%d@%v", cellID(*c), depart))
	var v Verdict
	switch r := f.rng.Float64(); {
	case r < 0.05:
		v.Drop = true
	case r < 0.1:
		v.Duplicate = true
	case r < 0.2:
		v.Delay = time.Duration(f.rng.Int63n(int64(4 * us)))
	}
	return v
}

// runSend is one SendRun call: made in an event at at, for n cells from id
// on, handed over from start, spacing apart.
type runSend struct {
	at, start, spacing time.Duration
	id, n              int
}

// runSchedule draws one seeded schedule of runs: starts before, at and after
// the call's instant, spacings of zero, below, at and above the cell time,
// runs longer than the largest ring chunk, and calls while earlier runs
// still hold the transmitter (a backlog) or long after it went idle. With
// future false no start lies after its call.
func runSchedule(rng *rand.Rand, lp LinkParams, future bool) []runSend {
	var sends []runSend
	at, id := time.Duration(0), 0
	for b, calls := 0, 3+rng.Intn(6); b < calls; b++ {
		s := runSend{at: at, id: id, n: 1 + rng.Intn(40)}
		if rng.Intn(6) == 0 {
			s.n = 129 + rng.Intn(200)
		}
		switch r := rng.Intn(4); {
		case r == 0 && future:
			s.start = at - time.Duration(rng.Int63n(int64(5*lp.CellTime)))
		case r == 1 && future:
			s.start = at + time.Duration(rng.Int63n(int64(20*lp.CellTime)))
		default:
			s.start = at
		}
		switch rng.Intn(5) {
		case 0:
			s.spacing = 0
		case 1:
			s.spacing = time.Duration(rng.Int63n(int64(lp.CellTime)))
		case 2:
			s.spacing = lp.CellTime
		default:
			s.spacing = lp.CellTime + time.Duration(rng.Int63n(int64(3*lp.CellTime)))
		}
		sends = append(sends, s)
		id += s.n
		if rng.Intn(3) == 0 {
			at += time.Duration(rng.Intn(s.n+1)) * lp.CellTime // into the backlog
		} else {
			at = s.start + time.Duration(s.n)*(s.spacing+lp.CellTime) + time.Duration(rng.Intn(50))*us
		}
	}
	return sends
}

func runCells(s runSend) []atm.Cell {
	cells := make([]atm.Cell, s.n)
	for i := range cells {
		cells[i] = idCell(s.id + i)
	}
	return cells
}

// outcome is what one run of a schedule showed: the trains and arm markers
// its sink saw, NextFree, Stats and tail drops after every call, the
// injector's questions, and the events the engines ran.
type outcome struct {
	trains []trainRec
	after  []string
	judged []string
	steps  uint64
	stats  LinkStats
	tail   uint64
}

// TestSendRunMatchesPerCell: SendRun books a run of cells exactly as the
// per-cell loop it replaced (sendAtPerCell) — the same trains at the same
// instants through trainLog, the same NextFree and Stats after every call,
// the same injector questions, and the link's delivery armed at the same
// instant and in the same place among that instant's events (a marker
// event queued right after each call at the head run's arrival fires on
// the same side of it) — over 200 seeded schedules, on a local link whose
// sink sends cells back onto it, a local link with an injector, a cross
// link's transmit half with one, and a switch output port with a finite
// queue, where tail drops per port must match the per-cell rule too.
func TestSendRunMatchesPerCell(t *testing.T) {
	lp := LinkParams{CellTime: 1 * us, Propagation: 500 * time.Nanosecond}
	var tail, lost, dups uint64
	long := 0
	for seed := int64(1); seed <= 200; seed++ {
		for _, kind := range []string{"local", "injector", "cross", "queue"} {
			sends := runSchedule(rand.New(rand.NewSource(seed)), lp, kind != "queue")
			qcells := 1 + int(seed%8)
			play := func(bulk bool) outcome {
				var o outcome
				e := sim.New(1)
				rx := e
				if kind == "cross" {
					rx = e.NewShard()
				}
				log := &trainLog{e: rx}
				var l *Link
				var sw *Switch
				switch kind {
				case "cross":
					l = NewCrossLink(e, rx, "x", lp, log)
				case "queue":
					sw = NewSwitch(e, "sw", 2, DefaultSwitchLatency, lp, []CellSink{log, SinkFunc(func(atm.Cell) {})})
					sw.SetOutputQueueCells(qcells)
					l = sw.out[0]
				default:
					l = NewLink(e, "l", lp, log)
				}
				var send sender = l
				if !bulk {
					send = perCell{l}
				}
				inj := &drawnFaults{rng: rand.New(rand.NewSource(seed))}
				if kind == "local" {
					log.bounce = send
				} else if kind != "queue" {
					l.SetInjector(inj)
				}
				for _, s := range sends {
					e.At(s.at, func() {
						cells := runCells(s)
						switch {
						case sw == nil:
							send.SendRun(cells, s.start, s.spacing)
						case bulk:
							sw.forward(l, 0, cells, s.start, s.spacing)
						default:
							forwardPerCell(sw, l, 0, cells, s.start, s.spacing)
						}
						if l.runs.Len() > 0 {
							e.At(l.runs.Front().first, func() {
								log.trains = append(log.trains, trainRec{at: e.Now(), first: -1})
							})
						}
						if sw != nil {
							o.tail = sw.QueueDrops(0)
						}
						o.stats = l.Stats()
						o.after = append(o.after, fmt.Sprintf("next free %v, %+v, %d tail drops", l.NextFree(), o.stats, o.tail))
					})
				}
				e.Run()
				o.trains, o.judged, o.steps = log.trains, inj.log, e.Steps()
				if rx != e {
					o.steps += rx.Steps()
				}
				return o
			}
			got, want := play(true), play(false)
			where := fmt.Sprintf("seed %d, %s link", seed, kind)
			for i := range want.trains {
				if i >= len(got.trains) || got.trains[i].at != want.trains[i].at || got.trains[i].first != want.trains[i].first || got.trains[i].spacing != want.trains[i].spacing || !slices.Equal(got.trains[i].ids, want.trains[i].ids) {
					t.Fatalf("%s: train or marker %d of %d is %+v, per-cell sends gave %+v", where, i, len(want.trains), got.trains[i:min(i+1, len(got.trains))], want.trains[i])
				}
				if len(want.trains[i].ids) > 128 {
					long++
				}
			}
			if len(got.trains) != len(want.trains) {
				t.Fatalf("%s: %d trains and markers, per-cell sends gave %d", where, len(got.trains), len(want.trains))
			}
			if !slices.Equal(got.after, want.after) {
				t.Fatalf("%s: after each call\n%q\nper-cell sends left\n%q", where, got.after, want.after)
			}
			if !slices.Equal(got.judged, want.judged) {
				t.Fatalf("%s: the injector was asked\n%q\nper-cell sends asked\n%q", where, got.judged, want.judged)
			}
			if got.steps != want.steps {
				t.Fatalf("%s: %d events ran, per-cell sends ran %d", where, got.steps, want.steps)
			}
			tail, lost, dups = tail+want.tail, lost+want.stats.CellsLost, dups+want.stats.CellsDuplicated
		}
	}
	if tail == 0 || lost == 0 || dups == 0 || long == 0 {
		t.Fatalf("the schedules tail-dropped %d cells, lost %d, duplicated %d and delivered %d trains longer than a ring chunk: a zero tests nothing", tail, lost, dups, long)
	}
}
