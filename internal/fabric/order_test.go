package fabric_test

import (
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/faults"
	"unet/internal/sim"
)

// TestPortForwardsInArrivalOrder drives one input port through a jittered
// uplink. A fiber never reorders, so a delayed cell holds back the cell
// behind it and both arrive at one instant, the link handing them over as
// two trains. A train splits into runs, one per output port, and the runs
// wait at the input port while output port 0, which a second input also
// feeds, is backlogged. Every cell of the jittered input must leave its
// output port in the order it arrived, carrying the label its own route
// gave it; a job that found another run at the head of its input port
// would panic first.
func TestPortForwardsInArrivalOrder(t *testing.T) {
	const us = time.Microsecond
	e := sim.New(1)
	out := []*arrivals{{}, {}}
	down := fabric.LinkParams{CellTime: 3 * us, Propagation: 700 * time.Nanosecond}
	sw := fabric.NewSwitch(e, "sw", 2, 2*us, down, []fabric.CellSink{out[0], out[1]})
	// Labels 40-42 leave on port 0, label 43 on port 1; the second input's
	// label 40 leaves on port 0 too, under a label of its own.
	label := map[atm.VCI]atm.VCI{}
	for v := atm.VCI(40); v < 44; v++ {
		l, err := sw.Swap(0, v, int(v/43))
		if err != nil {
			t.Fatal(err)
		}
		label[v] = l
	}
	background, err := sw.Swap(1, 40, 0)
	if err != nil {
		t.Fatal(err)
	}

	up := fabric.LinkParams{CellTime: us, Propagation: 500 * time.Nanosecond}
	ties := &tieCount{sink: sw.PortSink(0)}
	jittered := fabric.NewLink(e, "up0", up, ties)
	jittered.SetInjector(faults.NewJitter(1, "up0", 0.2, 5*us))
	other := fabric.NewLink(e, "up1", up, sw.PortSink(1))
	const n = 2000
	for i := 0; i < n; i++ {
		c := atm.Cell{VCI: atm.VCI(40 + i/3%4)}
		c.Payload[0], c.Payload[1] = byte(i>>8), byte(i)
		at := time.Duration(i+i/16*8) * us // bursts of 16 back to back
		e.At(at, func() { jittered.Send(c) })
		if i%2 == 0 {
			e.At(at+us/2, func() { other.Send(atm.Cell{VCI: 40}) })
		}
	}
	e.Run()

	seen := 0
	for port, o := range out {
		last := -1
		for _, c := range o.cells {
			if c.VCI == background && port == 0 {
				continue
			}
			id := int(c.Payload[0])<<8 | int(c.Payload[1])
			if id <= last {
				t.Fatalf("port %d: cell %d left after cell %d", port, id, last)
			}
			if want := label[atm.VCI(40+id/3%4)]; c.VCI != want {
				t.Fatalf("port %d: cell %d left with label %d, its route gives %d", port, id, c.VCI, want)
			}
			last = id
			seen++
		}
	}
	if seen != n || len(out[0].cells)+len(out[1].cells) != n+n/2 {
		t.Fatalf("%d of %d cells and %d of %d in all left the switch", seen, n, len(out[0].cells)+len(out[1].cells), n+n/2)
	}
	if ties.n == 0 {
		t.Fatal("the jitter never handed over two trains at one instant: the test tests nothing")
	}
}

// arrivals records every cell a sink is handed.
type arrivals struct{ cells []atm.Cell }

func (a *arrivals) DeliverTrain(cells []atm.Cell, _, _ time.Duration) {
	a.cells = append(a.cells, cells...)
}

// tieCount passes trains on to sink, counting those whose head arrives at
// the instant of the train before.
type tieCount struct {
	sink fabric.CellSink
	last time.Duration
	n    int
}

func (c *tieCount) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	if first == c.last {
		c.n++
	}
	c.last = first
	c.sink.DeliverTrain(cells, first, spacing)
}
