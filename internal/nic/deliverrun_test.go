package nic_test

import (
	"math/rand"
	"os"
	"strings"
	"testing"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/unet"
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

// TestDeliverRunMatchesDeliverTrain: every intake script, each train of it
// handed to the NIC off a ring whose first chunk ends at a random cell
// (DeliverRun), shows what the script shows with each train in one slice:
// the digest intake.digests pins, over every delivery and counter. The
// scripts' FIFOs hold 6 to 292 cells, so some trains fit and some overflow
// and take the per-cell fallback.
func TestDeliverRunMatchesDeliverTrain(t *testing.T) {
	raw, err := os.ReadFile("testdata/intake.digests")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			pinned[f[0]] = f[1]
		}
	}
	names, scripts := intakeScripts()
	overflowed := 0
	for i, s := range scripts {
		rng := rand.New(rand.NewSource(int64(i)))
		r := runIntakeSplit(t, s, func(n int) int { return 1 + rng.Intn(min(n-1, 128)) })
		if got := r.digest(); got != pinned[names[i]] {
			t.Errorf("%s: digest %s off split rings, %s in one slice", names[i], got, pinned[names[i]])
		}
		if r.stats[1].InFIFODrops > 0 {
			overflowed++
		}
	}
	if overflowed < len(scripts)/10 {
		t.Fatalf("%d of %d scripts overflowed the FIFO: the fallback is barely tried", overflowed, len(scripts))
	}
}

// TestStraddlingRunReachesTheNICInPlace: a 200-cell train up a link,
// through a switch port and down a link into a NIC lies in two chunks of
// each link's ring; the switch and the NIC read it off the ring where it
// lies, and the NIC takes every cell and delivers the PDU.
func TestStraddlingRunReachesTheNICInPlace(t *testing.T) {
	e := sim.New(1)
	t.Cleanup(e.Shutdown)
	lp := fabric.DefaultLinkParams()
	h := unet.NewHost(e, "h")
	dev := nic.New(e, h, nic.SBA200Params(), fabric.NewLink(e, "h.up", lp, fabric.SinkFunc(func(atm.Cell) {})))
	h.SetDevice(dev)
	dev.Start()
	ep, err := h.Kernel.CreateEndpoint(nil, h.NewProcess("app"), unet.EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.ProvideRecvBuffers(nil, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := dev.OpenChannel(ep, 0, 5, 5); err != nil {
		t.Fatal(err)
	}
	sw := fabric.NewSwitch(e, "sw", 2, fabric.DefaultSwitchLatency, lp, []fabric.CellSink{fabric.SinkFunc(func(atm.Cell) {}), dev})
	if err := sw.Route(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	up := fabric.NewLink(e, "up", lp, sw.PortSink(0))
	cells := atm.Segment(5, make([]byte, 200*atm.PayloadSize-8))
	up.SendRun(cells, 0, 0)
	e.Run()
	if st := dev.Stats(); st.CellsIn != uint64(len(cells)) || st.PDUsIn != 1 {
		t.Errorf("the NIC took %d of %d cells and %d PDUs, want all and one", st.CellsIn, len(cells), st.PDUsIn)
	}
}
