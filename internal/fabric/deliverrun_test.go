package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// straddled returns a ring holding cells whose first chunk ends after b of
// them, 0 < b ≤ 128.
func straddled(cells []atm.Cell, b int) *sim.Ring[atm.Cell] {
	r := new(sim.Ring[atm.Cell])
	room := r.Room(128)
	copy(room[128-b:], cells[:b])
	r.Drop(128 - b)
	for i := b; i < len(cells); {
		i += copy(r.Room(len(cells)-i), cells[i:])
	}
	return r
}

// switchRecord is everything a switch shows of one train: its input port's
// queue right after the delivery, the jobs it scheduled, its drops, and
// each output train as "port first spacing VCIs".
type switchRecord struct {
	queued      []atm.Cell
	jobs        []string
	unknown     uint64
	queueDrops  uint64
	deliveries  []string
	pendingJobs int
	sent        [4][]atm.VCI // the labels each output port sent, in order
}

// playSwitch delivers one train into input port 0 of a four-port switch
// with routes to ports 1-3 — labels 10-18 keep their label, 20 and 21 are
// swapped to two labels of port 1, 22 to one of port 2 — the output queues
// bounded at qcells (0: unbounded), and records what it shows.
func playSwitch(cells []atm.Cell, qcells int, deliver func(s *Switch, first, spacing time.Duration)) switchRecord {
	e := sim.New(1)
	lp := LinkParams{CellTime: 3 * us, Propagation: 1 * us}
	var rec switchRecord
	sinks := make([]CellSink, 4)
	for p := range sinks {
		sinks[p] = trainRecorder(func(first, spacing time.Duration, vcis []atm.VCI) {
			rec.deliveries = append(rec.deliveries, fmt.Sprint(p, first, spacing, vcis))
			rec.sent[p] = append(rec.sent[p], vcis...)
		})
	}
	s := NewSwitch(e, "sw", 4, 2*us, lp, sinks)
	s.SetOutputQueueCells(qcells)
	for v := atm.VCI(10); v < 19; v++ {
		if err := s.Route(0, v, 1+int(v-10)/3); err != nil {
			panic(err)
		}
	}
	for _, r := range [][2]int{{20, 1}, {21, 1}, {22, 2}} {
		if _, err := s.Swap(0, atm.VCI(r[0]), r[1]); err != nil {
			panic(err)
		}
	}
	// A free list the test owns: getJob pops it from the front, so the
	// jobs a delivery scheduled are the first ones gone from it.
	jobs := make([]*fwdJob, 512)
	for i := len(jobs) - 1; i >= 0; i-- {
		jobs[i] = &fwdJob{s: s, next: s.free}
		s.free = jobs[i]
	}
	deliver(s, 5*us, lp.CellTime)
	q := &s.wait[0]
	w := q.cells.Walk(q.cells.Len())
	rec.queued = make([]atm.Cell, q.cells.Len())
	w.Read(rec.queued)
	for _, j := range jobs {
		if j.link == nil {
			break
		}
		rec.jobs = append(rec.jobs, fmt.Sprint(j.start, j.n, j.pos, j.port, j.in, j.spacing))
	}
	rec.pendingJobs = e.PendingEvents()
	e.Run()
	rec.unknown, rec.queueDrops = s.UnknownVCICells(), s.TotalQueueDrops()
	return rec
}

// trainRecorder logs each train it is handed with its timing.
type trainRecorder func(first, spacing time.Duration, vcis []atm.VCI)

func (r trainRecorder) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	vcis := make([]atm.VCI, len(cells))
	for i := range cells {
		vcis[i] = cells[i].VCI
	}
	r(first, spacing, vcis)
}

// genTrain draws a train of same-route runs to the three routed ports, of
// unknown VCIs among them, and of VCIs that change within a route.
func genTrain(rng *rand.Rand) []atm.Cell {
	var cells []atm.Cell
	for n := 20 + rng.Intn(280); len(cells) < n; {
		run := 1 + rng.Intn(40)
		port := rng.Intn(4) // 0: no route
		for range run {
			v := atm.VCI(99)
			if port > 0 {
				v = atm.VCI(10 + 3*(port-1) + rng.Intn(3))
			}
			c := atm.Cell{VCI: v}
			c.Payload[0] = byte(len(cells))
			cells = append(cells, c)
		}
	}
	return cells
}

// TestDeliverRunMatchesDeliverTrain: a switch port handed a train off a
// ring whose chunks split it (DeliverRun) does what it does with the same
// cells in one slice (DeliverTrain): the same cells wait in its input
// port's ring, relabelled, the same jobs (start, n, pos, port) are
// scheduled in the same order, the same cells are dropped for want of a
// route or of output queue room, and the output links deliver the same
// trains at the same instants. The chunk boundary lies inside a same-route
// run, at a route change, and next to an unknown-VCI cell, over generated
// trains, with output queues unbounded and bounded.
func TestDeliverRunMatchesDeliverTrain(t *testing.T) {
	route := func(v atm.VCI) int {
		if v == 99 {
			return 0
		}
		return 1 + int(v-10)/3
	}
	kinds := []struct {
		name string
		at   func(cells []atm.Cell, b int) bool // the boundary falls before cells[b]
	}{
		{"inside a run", func(c []atm.Cell, b int) bool { r := route(c[b].VCI); return r != 0 && r == route(c[b-1].VCI) }},
		{"at a route change", func(c []atm.Cell, b int) bool {
			r, l := route(c[b].VCI), route(c[b-1].VCI)
			return r != 0 && l != 0 && r != l
		}},
		{"next to an unknown cell", func(c []atm.Cell, b int) bool { return route(c[b].VCI) == 0 || route(c[b-1].VCI) == 0 }},
	}
	seen := make([]int, len(kinds))
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells := genTrain(rng)
		qcells := []int{0, 0, 6, 40}[rng.Intn(4)]
		want := playSwitch(cells, qcells, func(s *Switch, first, spacing time.Duration) {
			s.DeliverTrain(0, cells, first, spacing)
		})
		for k, kind := range kinds {
			var at []int
			for b := 1; b < len(cells) && b <= 128; b++ {
				if kind.at(cells, b) {
					at = append(at, b)
				}
			}
			if len(at) == 0 {
				continue
			}
			seen[k]++
			b := at[rng.Intn(len(at))]
			r := straddled(cells, b)
			if len(r.Span(len(cells))) != b {
				t.Fatalf("seed %d: the ring's first chunk holds %d of the train's cells, want %d", seed, len(r.Span(len(cells))), b)
			}
			got := playSwitch(cells, qcells, func(s *Switch, first, spacing time.Duration) {
				s.DeliverRun(0, r, len(cells), first, spacing)
			})
			where := fmt.Sprintf("seed %d, %d cells, queue %d, boundary %s at %d", seed, len(cells), qcells, kind.name, b)
			if !slices.Equal(got.queued, want.queued) {
				t.Errorf("%s: the input port's ring holds other cells", where)
			}
			if !slices.Equal(got.jobs, want.jobs) || got.pendingJobs != want.pendingJobs {
				t.Errorf("%s: jobs %v (%d events), want %v (%d)", where, got.jobs, got.pendingJobs, want.jobs, want.pendingJobs)
			}
			if got.unknown != want.unknown || got.queueDrops != want.queueDrops {
				t.Errorf("%s: %d unknown and %d queue drops, want %d and %d", where, got.unknown, got.queueDrops, want.unknown, want.queueDrops)
			}
			if !slices.Equal(got.deliveries, want.deliveries) {
				t.Errorf("%s: the output links delivered %v, want %v", where, got.deliveries, want.deliveries)
			}
			if r.Len() != len(cells) {
				t.Errorf("%s: DeliverRun left %d cells in the ring, want all %d", where, r.Len(), len(cells))
			}
		}
	}
	for k, kind := range kinds {
		if seen[k] < 50 {
			t.Errorf("only %d trains put the boundary %s", seen[k], kind.name)
		}
	}
	// Two trains on swapped labels, which the generator does not draw: two
	// labels to one port under different outgoing labels, alternating in
	// stretches of one to five cells; and stretches whose label goes to
	// another port than the label before. Whole and split at every chunk
	// boundary, each forwarded cell carries the label Lookup gives.
	for _, tc := range []struct {
		name string
		runs [][2]int // label, cells
	}{
		{"two labels to one port", [][2]int{{20, 1}, {21, 1}, {20, 2}, {21, 2}, {20, 3}, {21, 3}, {20, 5}, {21, 1}, {20, 1}, {21, 4}, {20, 1}, {21, 5}}},
		{"a port change after a stretch", [][2]int{{20, 3}, {22, 2}, {20, 4}, {21, 1}, {22, 5}, {20, 6}, {21, 3}, {22, 1}, {21, 2}, {20, 1}, {22, 3}}},
	} {
		var cells []atm.Cell
		for _, run := range tc.runs {
			for range run[1] {
				c := atm.Cell{VCI: atm.VCI(run[0])}
				c.Payload[0] = byte(len(cells))
				cells = append(cells, c)
			}
		}
		check := func(how string, deliver func(s *Switch, first, spacing time.Duration)) {
			var want [4][]atm.VCI
			got := playSwitch(cells, 0, func(s *Switch, first, spacing time.Duration) {
				for _, c := range cells {
					port, out, ok := s.Lookup(0, c.VCI)
					if !ok || out == c.VCI {
						t.Fatalf("%s: label %d is not swapped (%d, %d, %v)", tc.name, c.VCI, port, out, ok)
					}
					want[port] = append(want[port], out)
				}
				deliver(s, first, spacing)
			})
			if !reflect.DeepEqual(got.sent, want) {
				t.Errorf("%s, %s: the ports sent %v, Lookup gives %v", tc.name, how, got.sent, want)
			}
		}
		check("whole", func(s *Switch, first, spacing time.Duration) { s.DeliverTrain(0, cells, first, spacing) })
		for b := 1; b < len(cells); b++ {
			r := straddled(cells, b)
			check(fmt.Sprintf("split after %d", b), func(s *Switch, first, spacing time.Duration) {
				s.DeliverRun(0, r, len(cells), first, spacing)
			})
		}
	}
}
