package fabric

import (
	"testing"

	"unet/internal/atm"
	"unet/internal/sim"
)

// TestLabelsSpace drives one link's label space to its limit: labels come
// lowest-first from FirstUserVCI, the 65 505th circuit is an error naming
// the link, and a freed label is the next one handed out.
func TestLabelsSpace(t *testing.T) {
	var l Labels
	const circuits = 1<<16 - int(FirstUserVCI)
	for i := 0; i < circuits; i++ {
		v, err := l.Alloc("cl.up3")
		if err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		if want := FirstUserVCI + atm.VCI(i); v != want {
			t.Fatalf("circuit %d got label %d, want %d", i, v, want)
		}
	}
	_, err := l.Alloc("cl.up3")
	if err == nil || err.Error() != "fabric: link cl.up3: no free VCI (65504 circuits)" {
		t.Fatalf("full space: err = %v", err)
	}
	l.Free(4711)
	l.Free(77)
	l.Free(5) // reserved: stays reserved
	for _, want := range []atm.VCI{77, 4711} {
		if v, err := l.Alloc("cl.up3"); err != nil || v != want {
			t.Fatalf("after free: got %d, %v; want %d", v, err, want)
		}
	}
	if _, err := l.Alloc("cl.up3"); err == nil {
		t.Fatal("space full again, Alloc succeeded")
	}
}

// TestLabelsTakeIsSkipped: a label an explicit route chose is not handed
// out until it is freed.
func TestLabelsTakeIsSkipped(t *testing.T) {
	var l Labels
	l.Take(33)
	l.Take(200)
	l.Take(7) // reserved anyway
	got := []atm.VCI{}
	for i := 0; i < 3; i++ {
		v, _ := l.Alloc("l")
		got = append(got, v)
	}
	if got[0] != 32 || got[1] != 34 || got[2] != 35 {
		t.Fatalf("labels %v, want [32 34 35]", got)
	}
	l.Free(33)
	if v, _ := l.Alloc("l"); v != 33 {
		t.Fatalf("freed label 33, got %d", v)
	}
}

// TestSwitchSwapsLabels: a provisioned stage rewrites the cell's VCI to the
// output link's label, per cell and inside trains, and different input
// ports number their circuits independently.
func TestSwitchSwapsLabels(t *testing.T) {
	e := sim.New(1)
	a, b := &collector{}, &collector{}
	sw := NewSwitch(e, "sw", 3, 0, LinkParams{CellTime: 1 * us}, []CellSink{a, b, &collector{}})
	// Two circuits into port 1, both arriving as label 32 on their own
	// input port; one into port 0 arriving as 33.
	o1, err1 := sw.Swap(0, 32, 1)
	o2, err2 := sw.Swap(2, 32, 1)
	o3, err3 := sw.Swap(2, 33, 0)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if o1 != 32 || o2 != 33 || o3 != 32 {
		t.Fatalf("out labels %d %d %d, want 32 33 32", o1, o2, o3)
	}
	one(sw.PortSink(0), atm.Cell{VCI: 32}, 0)
	sw.PortSink(2).DeliverTrain([]atm.Cell{{VCI: 32}, {VCI: 33}, {VCI: 34}, {VCI: 32}}, 0, 1*us)
	e.Run()
	if len(a.cells) != 1 || a.cells[0].VCI != 32 {
		t.Fatalf("port 0 got %v", a.cells)
	}
	var got []atm.VCI
	for _, c := range b.cells {
		got = append(got, c.VCI)
	}
	if len(got) != 3 || got[0] != 32 || got[1] != 33 || got[2] != 33 {
		t.Fatalf("port 1 got labels %v, want [32 33 33]", got)
	}
	if sw.UnknownVCICells() != 1 {
		t.Fatalf("UnknownVCICells = %d, want 1 (label 34 on port 2)", sw.UnknownVCICells())
	}
}
