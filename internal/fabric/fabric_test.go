package fabric

import (
	"testing"
	"time"
	"unsafe"

	"unet/internal/atm"
	"unet/internal/sim"
)

const us = time.Microsecond

type collector struct {
	cells []atm.Cell
	times []time.Duration
	e     *sim.Engine
}

func (c *collector) DeliverCell(cell atm.Cell) {
	c.cells = append(c.cells, cell)
	c.times = append(c.times, c.e.Now())
}

func TestLinkDeliversAfterSerializationAndPropagation(t *testing.T) {
	e := sim.New(1)
	col := &collector{e: e}
	lp := LinkParams{CellTime: 3 * us, Propagation: 1 * us}
	l := NewLink(e, "l", lp, col)
	l.Send(atm.Cell{VCI: 7})
	e.Run()
	if len(col.cells) != 1 {
		t.Fatalf("delivered %d cells, want 1", len(col.cells))
	}
	if col.times[0] != 4*us {
		t.Fatalf("delivered at %v, want 4µs", col.times[0])
	}
	if col.cells[0].VCI != 7 {
		t.Fatalf("VCI = %d, want 7", col.cells[0].VCI)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	e := sim.New(1)
	col := &collector{e: e}
	lp := LinkParams{CellTime: 3 * us, Propagation: 0}
	l := NewLink(e, "l", lp, col)
	for i := 0; i < 5; i++ {
		l.Send(atm.Cell{})
	}
	e.Run()
	for i, at := range col.times {
		want := time.Duration(i+1) * 3 * us
		if at != want {
			t.Fatalf("cell %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestLinkPreservesOrder(t *testing.T) {
	e := sim.New(1)
	col := &collector{e: e}
	l := NewLink(e, "l", LinkParams{CellTime: 1 * us}, col)
	for i := 0; i < 10; i++ {
		var c atm.Cell
		c.Payload[0] = byte(i)
		l.Send(c)
	}
	e.Run()
	for i, c := range col.cells {
		if int(c.Payload[0]) != i {
			t.Fatalf("cell %d carries payload %d", i, c.Payload[0])
		}
	}
}

func TestLinkBacklogAndWaitReady(t *testing.T) {
	e := sim.New(1)
	defer e.Shutdown()
	col := &collector{e: e}
	l := NewLink(e, "l", LinkParams{CellTime: 2 * us}, col)
	var after time.Duration
	e.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			l.Send(atm.Cell{})
		}
		if got := l.Backlog(); got != 8*us {
			t.Errorf("Backlog = %v, want 8µs", got)
		}
		l.WaitReady(p, 2) // drain until ≤ 2 cells queued
		after = p.Now()
	})
	e.Run()
	if after != 4*us {
		t.Fatalf("WaitReady returned at %v, want 4µs", after)
	}
}

// dropIf is the smallest Injector: it drops the cells the predicate picks.
// (Package faults has the real models; it imports this package.)
type dropIf func(atm.Cell) bool

func (f dropIf) Judge(c *atm.Cell, depart time.Duration) Verdict { return Verdict{Drop: f(*c)} }

func TestLinkLossRate(t *testing.T) {
	e := sim.New(7)
	col := &collector{e: e}
	l := NewLink(e, "l", LinkParams{CellTime: 1 * us}, col)
	l.SetInjector(dropIf(func(atm.Cell) bool { return e.Rand().Float64() < 0.5 }))
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(atm.Cell{})
	}
	e.Run()
	st := l.Stats()
	if st.CellsSent != n {
		t.Fatalf("CellsSent = %d, want %d", st.CellsSent, n)
	}
	if st.CellsLost < n/3 || st.CellsLost > 2*n/3 {
		t.Fatalf("CellsLost = %d, want roughly %d", st.CellsLost, n/2)
	}
	if uint64(len(col.cells)) != n-st.CellsLost {
		t.Fatalf("delivered %d, want %d", len(col.cells), n-st.CellsLost)
	}
}

func TestLinkDeterministicLoss(t *testing.T) {
	e := sim.New(1)
	col := &collector{e: e}
	l := NewLink(e, "l", LinkParams{CellTime: 1 * us}, col)
	i := 0
	l.SetInjector(dropIf(func(atm.Cell) bool { i++; return i == 2 }))
	for j := 0; j < 3; j++ {
		l.Send(atm.Cell{VCI: atm.VCI(j)})
	}
	e.Run()
	if len(col.cells) != 2 || col.cells[0].VCI != 0 || col.cells[1].VCI != 2 {
		t.Fatalf("delivered VCIs %v, want [0 2]", col.cells)
	}
}

func TestSwitchRoutesByVCI(t *testing.T) {
	e := sim.New(1)
	a, b := &collector{e: e}, &collector{e: e}
	lp := LinkParams{CellTime: 1 * us}
	sw := NewSwitch(e, "sw", 2, 2*us, lp, []CellSink{a, b})
	if err := sw.Route(1, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := sw.Route(0, 11, 1); err != nil {
		t.Fatal(err)
	}
	sw.PortSink(0).DeliverCell(atm.Cell{VCI: 11})
	sw.PortSink(1).DeliverCell(atm.Cell{VCI: 10})
	e.Run()
	if len(a.cells) != 1 || a.cells[0].VCI != 10 {
		t.Fatalf("port 0 got %v", a.cells)
	}
	if len(b.cells) != 1 || b.cells[0].VCI != 11 {
		t.Fatalf("port 1 got %v", b.cells)
	}
	// latency 2µs + output serialization 1µs
	if a.times[0] != 3*us {
		t.Fatalf("port 0 delivery at %v, want 3µs", a.times[0])
	}
}

func TestSwitchDropsUnknownVCI(t *testing.T) {
	e := sim.New(1)
	a := &collector{e: e}
	sw := NewSwitch(e, "sw", 1, 0, LinkParams{CellTime: 1 * us}, []CellSink{a})
	sw.PortSink(0).DeliverCell(atm.Cell{VCI: 99})
	e.Run()
	if len(a.cells) != 0 {
		t.Fatal("unrouted cell was delivered")
	}
	if sw.UnknownVCICells() != 1 {
		t.Fatalf("UnknownVCICells = %d, want 1", sw.UnknownVCICells())
	}
}

func TestSwitchRejectsBadPort(t *testing.T) {
	e := sim.New(1)
	sw := NewSwitch(e, "sw", 1, 0, LinkParams{}, []CellSink{&collector{e: e}})
	if err := sw.Route(0, 1, 5); err == nil {
		t.Fatal("Route accepted out-of-range port")
	}
	if err := sw.Route(0, 1, -1); err == nil {
		t.Fatal("Route accepted negative port")
	}
	if err := sw.Route(3, 1, 0); err == nil {
		t.Fatal("Route accepted out-of-range input port")
	}
}

func TestSwitchOutputContention(t *testing.T) {
	// Two cells arriving simultaneously for the same output must serialize.
	e := sim.New(1)
	a := &collector{e: e}
	sw := NewSwitch(e, "sw", 1, 0, LinkParams{CellTime: 3 * us}, []CellSink{a})
	sw.Route(0, 1, 0)
	sw.PortSink(0).DeliverCell(atm.Cell{VCI: 1})
	sw.PortSink(0).DeliverCell(atm.Cell{VCI: 1})
	e.Run()
	if len(a.times) != 2 || a.times[0] != 3*us || a.times[1] != 6*us {
		t.Fatalf("delivery times %v, want [3µs 6µs]", a.times)
	}
}

func TestDefaultCellTimeMatchesPeakBandwidth(t *testing.T) {
	// 48 bytes per DefaultCellTime should be ~15.2 MB/s (paper §4.2.1).
	bw := 48.0 / DefaultCellTime.Seconds() / 1e6
	if bw < 15.0 || bw > 15.4 {
		t.Fatalf("peak payload bandwidth = %.2f MB/s, want ~15.2", bw)
	}
}

// TestLinkSize pins Link to the 288-byte allocator size class and its
// in-flight ring entries to 64 bytes: a large fabric holds thousands of
// links, each with a ring of cells on the wire, and a word more on either
// shows up in the benchmark's alloc_mb (3% on clos64 for the ring entry).
// What only a cross-shard receive half needs lives behind Link.rx for that
// reason.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got > 288 {
		t.Errorf("sizeof(Link) = %d, want at most 288", got)
	}
	if got := unsafe.Sizeof(inflight{}); got != 64 {
		t.Errorf("sizeof(inflight) = %d, want 64", got)
	}
}
