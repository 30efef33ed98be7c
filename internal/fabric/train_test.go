package fabric

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// cellAt is one cell, named by the id in its first two payload bytes, at
// one instant.
type cellAt struct {
	id int
	at time.Duration
}

func idCell(id int) atm.Cell {
	var c atm.Cell
	c.VCI = 40
	c.Payload[0], c.Payload[1] = byte(id>>8), byte(id)
	return c
}

func cellID(c atm.Cell) int { return int(c.Payload[0])<<8 | int(c.Payload[1]) }

// verdicts is an Injector whose verdict is a fixed function of the cell's
// id, so the closed form below can ask it the same question.
type verdicts map[int]Verdict

func (v verdicts) Judge(c *atm.Cell, _ time.Duration) Verdict { return v[cellID(*c)] }

// perCellLink is what SendRun documents, one cell at a time: a cell handed
// over at s.at starts when the transmitter is free, leaves one CellTime
// later, and arrives a propagation delay (plus any injected delay) after
// that — never before the cell ahead of it. A dropped cell still uses its
// wire time; a duplicate follows its original one CellTime later.
func perCellLink(sends []cellAt, lp LinkParams, v verdicts) []cellAt {
	var out []cellAt
	var free, last time.Duration
	for _, s := range sends {
		free = max(s.at, free) + lp.CellTime
		verdict := v[s.id]
		if verdict.Drop {
			continue
		}
		last = max(free+lp.Propagation+verdict.Delay, last)
		out = append(out, cellAt{s.id, last})
		if verdict.Duplicate {
			last += lp.CellTime
			out = append(out, cellAt{s.id, last})
		}
	}
	return out
}

// TestTrainsMatchPerCellRules is the train contract checked against a
// closed form: seeded bursts go up two impaired uplinks into a switch whose
// one output port has a four-cell queue and a fiber three times slower, and
// the recording sink at the end of that fiber must see exactly the cells,
// in the order and at the instants, that the per-cell rules give — links
// (perCellLink), forwarding latency, and fwdFire's tail drop, decided
// against the port's committed departures at each cell's own forwarding
// time. Neither side of the comparison knows where the trains were.
//
// Bursts on the two inputs are spaced so that one input's forwarded cells
// never fall between another's: a train is booked on the output link when
// its head is forwarded, so there a later cell of the train would go ahead
// of the other input's cell (ROADMAP item 1), which per-cell booking would
// not do.
func TestTrainsMatchPerCellRules(t *testing.T) {
	up := LinkParams{CellTime: 1 * us, Propagation: 500 * time.Nanosecond}
	down := LinkParams{CellTime: 3 * us, Propagation: 700 * time.Nanosecond}
	const latency, qcells = 2 * us, 4
	const maxDelay = 4 * us
	var drops, dups, trains uint64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := verdicts{}
		var sends [2][]cellAt
		at, id := time.Duration(0), 0
		for b := 0; b < 8; b++ {
			in, n := b%2, 1+rng.Intn(12)
			for k := 0; k < n; k++ {
				var verdict Verdict
				switch r := rng.Float64(); {
				case r < 0.1:
					verdict.Drop = true
				case r < 0.2:
					verdict.Duplicate = true
				case r < 0.35:
					verdict.Delay = time.Duration(rng.Int63n(int64(maxDelay)))
				}
				v[id] = verdict
				sends[in] = append(sends[in], cellAt{id, at})
				id++
			}
			// Past every cell of this burst on its input (a cell and its
			// duplicate each take a CellTime, and one may be delayed), and
			// sometimes well past the output port's backlog too.
			at += time.Duration(2*n)*up.CellTime + maxDelay + time.Duration(rng.Int63n(int64(60*us)))
		}

		e := sim.New(1)
		rec := &collector{}
		sw := NewSwitch(e, "sw", 2, latency, down, []CellSink{rec, SinkFunc(func(atm.Cell) {})})
		sw.SetOutputQueueCells(qcells)
		var fwd []cellAt
		for in := range sends {
			l := NewLink(e, "up", up, &trainCount{sink: sw.PortSink(in), trains: &trains})
			l.SetInjector(v)
			if err := sw.Route(in, 40, 0); err != nil {
				t.Fatal(err)
			}
			for _, s := range sends[in] {
				e.At(s.at, func() { l.Send(idCell(s.id)) })
			}
			for _, a := range perCellLink(sends[in], up, v) {
				fwd = append(fwd, cellAt{a.id, a.at + latency})
			}
		}
		e.Run()

		slices.SortStableFunc(fwd, func(a, b cellAt) int { return int(a.at - b.at) })
		var queued []cellAt
		var free time.Duration
		var tail uint64
		for _, f := range fwd {
			if free-f.at >= qcells*down.CellTime {
				tail++
				continue
			}
			free = max(f.at, free) + down.CellTime
			queued = append(queued, f)
		}
		want := perCellLink(queued, down, nil)

		got := make([]cellAt, len(rec.cells))
		for i, c := range rec.cells {
			got[i] = cellAt{cellID(c), rec.times[i]}
		}
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: delivery %d of %d is %v, per-cell rules say %v", seed, i, len(want), got[i:min(i+1, len(got))], want[i])
				}
			}
			t.Fatalf("seed %d: %d deliveries, per-cell rules say %d", seed, len(got), len(want))
		}
		if sw.TotalQueueDrops() != tail {
			t.Fatalf("seed %d: switch tail-dropped %d cells, per-cell rules say %d", seed, sw.TotalQueueDrops(), tail)
		}
		drops += tail
		for _, verdict := range v {
			if verdict.Duplicate {
				dups++
			}
		}
	}
	if drops == 0 || dups == 0 || trains == 0 {
		t.Fatalf("the schedules never tail-dropped (%d), duplicated (%d) or formed a multi-cell train (%d): they test nothing", drops, dups, trains)
	}
}

// trainCount passes trains on to sink, counting those of more than one cell.
type trainCount struct {
	sink   CellSink
	trains *uint64
}

func (c *trainCount) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	if len(cells) > 1 {
		*c.trains++
	}
	c.sink.DeliverTrain(cells, first, spacing)
}
