package fabric

import (
	"fmt"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// trainCounter is a CellSink that counts delivered cells.
type trainCounter struct {
	cells int
	last  time.Duration
}

func (t *trainCounter) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	t.cells += len(cells)
	t.last = first + time.Duration(len(cells)-1)*spacing
}

// BenchmarkLink_CellThroughput streams back-to-back cells into a sink: the steady state is one pooled delivery event per
// burst and zero allocations per cell.
func BenchmarkLink_CellThroughput(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	var sink trainCounter
	l := NewLink(e, "bench", DefaultLinkParams(), &sink)
	c := atm.Cell{VCI: 5}
	b.ResetTimer()
	const burst = 32
	for i := 0; i < b.N; i += burst {
		for j := 0; j < burst; j++ {
			l.Send(c)
		}
		e.Run() // drain deliveries
	}
	b.StopTimer()
	if sink.cells == 0 {
		b.Fatal("no cells delivered")
	}
}

// BenchmarkLink_SendRun books runs of 1 cell (a serve_knee or gossip1k
// message) and of 22 (a storm8 message) with one SendRun each, draining
// after about 32 cells as BenchmarkLink_CellThroughput does; an op is one
// cell, so ns/op compares with that benchmark's per-cell Send directly.
func BenchmarkLink_SendRun(b *testing.B) {
	for _, n := range []int{1, 22} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			e := sim.New(1)
			var sink trainCounter
			l := NewLink(e, "bench", DefaultLinkParams(), &sink)
			run := make([]atm.Cell, n)
			for i := range run {
				run[i].VCI = 5
			}
			per := max(1, 32/n) // runs between drains
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i += n {
				l.SendRun(run, e.Now(), l.p.CellTime)
				if k++; k == per {
					e.Run()
					k = 0
				}
			}
			e.Run()
			b.StopTimer()
			if sink.cells == 0 {
				b.Fatal("no cells delivered")
			}
		})
	}
}

// BenchmarkSwitch_TrainForward pushes cell trains through an uplink, the
// switch, and a downlink into a train-capable sink — the full fabric path
// of a streaming experiment.
func BenchmarkSwitch_TrainForward(b *testing.B) {
	b.ReportAllocs()
	e := sim.New(1)
	var sink trainCounter
	sw := NewSwitch(e, "sw", 2, DefaultSwitchLatency, DefaultLinkParams(),
		[]CellSink{&trainCounter{}, &sink})
	if err := sw.Route(0, 7, 1); err != nil {
		b.Fatal(err)
	}
	up := NewLink(e, "up", DefaultLinkParams(), sw.PortSink(0))
	c := atm.Cell{VCI: 7}
	b.ResetTimer()
	const burst = 32
	for i := 0; i < b.N; i += burst {
		for j := 0; j < burst; j++ {
			up.Send(c)
		}
		e.Run()
	}
	b.StopTimer()
	if sink.cells == 0 {
		b.Fatal("no cells forwarded")
	}
}
