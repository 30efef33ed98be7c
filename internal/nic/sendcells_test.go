package nic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
	"unet/internal/unet"
)

// sendCellsPerCell is the stall-per-cell loop sendCells folded into closed
// form, kept as its oracle: each cell costs TxPerCell on the cursor, waits
// while the output FIFO is full, and is handed to the uplink on its own. It
// returns how many cells after the first waited.
func (d *Device) sendCellsPerCell(cells []atm.Cell) (stalls int) {
	limit := time.Duration(outFIFOCells) * d.uplink.Params().CellTime
	for i := range cells {
		d.cursor += d.params.TxPerCell
		if ready := d.uplink.NextFree() - limit; d.cursor < ready {
			d.cursor = ready
			if i > 0 {
				stalls++
			}
		}
		d.uplink.SendRun(cells[i:i+1], d.cursor, 0)
		d.stats.CellsOut++
	}
	return stalls
}

// departures records when each cell it is handed arrived.
type departures struct{ at []time.Duration }

func (s *departures) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	for i := range cells {
		s.at = append(s.at, first+time.Duration(i)*spacing)
	}
}

// TestSendCellsMatchesStallLoop: sendCells' closed-form cursor leaves the
// processor, the uplink and the cells on the wire exactly where the
// stall-per-cell loop did — the same cursor, NextFree and CellsOut after
// every PDU and the same arrival for every cell — with TxPerCell below, at
// and above the cell time, on an idle uplink and on one backlogged past
// the output FIFO's bound, over 50 seeded sequences of PDUs from 1 to 200
// cells handed over at random instants and cursor offsets. Cells after a
// PDU's first must find the FIFO full somewhere, or the closed form's
// hard case went untested.
func TestSendCellsMatchesStallLoop(t *testing.T) {
	lp := fabric.DefaultLinkParams()
	txs := []time.Duration{SBA200Params().TxPerCell, lp.CellTime, ForeParams().TxPerCell, SBA100Params().TxPerCell}
	var stalls int
	for _, tx := range txs {
		for _, backlog := range []int{0, 3 * outFIFOCells} {
			for seed := int64(1); seed <= 50; seed++ {
				play := func(closed bool) (after []string, arrivals []time.Duration) {
					rng := rand.New(rand.NewSource(seed))
					e := sim.New(1)
					sink := &departures{}
					up := fabric.NewLink(e, "up", lp, sink)
					p := SBA200Params()
					p.TxPerCell = tx
					d := New(e, unet.NewHost(e, "host"), p, up)
					at := time.Duration(0)
					for k := 0; k < 6; k++ {
						cells := make([]atm.Cell, 1+rng.Intn(200))
						fixed := time.Duration(rng.Int63n(int64(30 * us)))
						e.At(at, func() {
							if k == 0 {
								up.SendRun(make([]atm.Cell, backlog), e.Now(), 0)
							}
							d.cursor = max(d.cursor, e.Now()) + fixed
							if closed {
								for i := 0; i < len(cells); {
									i += copy(up.Room(len(cells)-i), cells[i:])
								}
								d.sendCells(len(cells))
							} else {
								stalls += d.sendCellsPerCell(cells)
							}
							after = append(after, fmt.Sprintf("cursor %v, next free %v, %d cells out", d.cursor, up.NextFree(), d.stats.CellsOut))
						})
						at += time.Duration(rng.Int63n(int64(len(cells)+20))) * lp.CellTime
					}
					e.Run()
					return after, sink.at
				}
				gotAfter, got := play(true)
				wantAfter, want := play(false)
				where := fmt.Sprintf("TxPerCell %v, %d cells of backlog, seed %d", tx, backlog, seed)
				if !slices.Equal(gotAfter, wantAfter) {
					t.Fatalf("%s: after each PDU\n%q\nthe stall loop left\n%q", where, gotAfter, wantAfter)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: cells arrived at\n%v\nthe stall loop's at\n%v", where, got, want)
				}
			}
		}
	}
	if stalls == 0 {
		t.Fatal("no cell after a PDU's first found the output FIFO full: the sequences test only the easy case")
	}
}
