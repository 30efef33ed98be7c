package topo

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
)

const us = time.Microsecond

// TestStarNames pins the names of the paper's cluster as testbed.New builds
// it. Every per-link fault stream is keyed by its link's name, so a rename
// reseeds every fault run — on the serial and the sharded side alike, where
// no serial-vs-sharded golden would see it. The switch's name, atm.sw, is
// visible as the prefix of its port links and nowhere else.
func TestStarNames(t *testing.T) {
	f := MustCompile(sim.New(1), Star("atm", 4), nil)
	if len(f.Switches) != 1 {
		t.Fatalf("%d switches, want one", len(f.Switches))
	}
	for i := 0; i < 4; i++ {
		if got, want := f.Uplink(i).Name(), fmt.Sprintf("atm.up%d", i); got != want {
			t.Errorf("Uplink(%d) = %q, want %q", i, got, want)
		}
		if got, want := f.Downlink(i).Name(), fmt.Sprintf("atm.sw.port%d", i); got != want {
			t.Errorf("Downlink(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestStarEndToEnd(t *testing.T) {
	e := sim.New(1)
	spec := Star("cl", 4)
	spec.HostLink.CellTime = 1 * us
	spec.SwitchLatency = 2 * us
	f := MustCompile(e, spec, nil)
	rec := &sinkRec{}
	f.SetHostSink(2, rec)
	if err := f.Route(0, 42, 2); err != nil {
		t.Fatal(err)
	}
	f.Uplink(0).Send(atm.Cell{VCI: 42})
	e.Run()
	if len(rec.cells) != 1 {
		t.Fatalf("host 2 received %d cells, want 1", len(rec.cells))
	}
	// uplink 1µs + switch 2µs + downlink 1µs, and the default 200 ns of
	// fiber each way (a spec cannot say zero).
	if want := 4*us + 2*fabric.DefaultPropagation; rec.times[0] != want {
		t.Fatalf("delivered at %v, want %v", rec.times[0], want)
	}
}

func TestStarUndeliveredWithoutSink(t *testing.T) {
	e := sim.New(1)
	f := MustCompile(e, Star("cl", 2), nil)
	if err := f.Route(0, 5, 1); err != nil { // no sink registered for host 1
		t.Fatal(err)
	}
	f.Uplink(0).Send(atm.Cell{VCI: 5})
	e.Run()
	if f.UndeliveredCells() != 1 {
		t.Fatalf("UndeliveredCells = %d, want 1", f.UndeliveredCells())
	}
}

func TestPerInputPortProtection(t *testing.T) {
	// §3.2: with switch routes provisioned per input port, a third host
	// cannot inject cells on another pair's channel — its input port has
	// no route for that VCI.
	e := sim.New(1)
	f := MustCompile(e, Star("cl", 3), nil)
	rec := &sinkRec{}
	f.SetHostSink(1, rec)
	if err := f.Route(0, 40, 1); err != nil { // channel host0 → host1 on VCI 40
		t.Fatal(err)
	}
	f.Uplink(0).Send(atm.Cell{VCI: 40}) // legitimate
	f.Uplink(2).Send(atm.Cell{VCI: 40}) // forged by host 2
	e.Run()
	if len(rec.cells) != 1 {
		t.Fatalf("host 1 received %d cells, want only the legitimate one", len(rec.cells))
	}
	if got := f.Switches[0].UnknownVCICells(); got != 1 {
		t.Fatalf("forged cell not dropped: UnknownVCICells = %d", got)
	}
}

// echoSink records every arrival and bounces it straight back on the host's
// uplink with a reply VCI, so traffic crosses the shard boundary in both
// directions and reply timing depends on arrival timing.
type echoSink struct {
	up    *fabric.Link
	reply atm.VCI
	log   *[]string
	name  string
}

func (s *echoSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	for i, c := range cells {
		at := first + time.Duration(i)*spacing
		*s.log = append(*s.log, fmt.Sprintf("%s %v vci=%d seq=%d", s.name, at, c.VCI, c.Payload[0]))
	}
	if s.reply != 0 {
		replies := slices.Clone(cells)
		for i := range replies {
			replies[i].VCI = s.reply
		}
		s.up.SendRun(replies, first, spacing)
	}
}

// runEchoStar builds a 2-host star, has host 0 fire bursts of cells at
// host 1, host 1 echo each back, and returns the merged delivery log of both
// hosts. sharded selects whether each host lives on its own engine.
func runEchoStar(t *testing.T, sharded bool) []string {
	root := sim.New(1)
	var hostEng []*sim.Engine
	if sharded {
		hostEng = []*sim.Engine{root.NewShard(), root.NewShard()}
	}
	f := MustCompile(root, Star("cl", 2), hostEng)
	if err := f.Route(0, 40, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Route(1, 41, 0); err != nil {
		t.Fatal(err)
	}

	var log0, log1 []string
	f.SetHostSink(0, &echoSink{up: f.Uplink(0), log: &log0, name: "h0"})
	f.SetHostSink(1, &echoSink{up: f.Uplink(1), reply: 41, log: &log1, name: "h1"})

	// Bursts of back-to-back cells every 100µs: the echoes of one burst are
	// still in flight when the next burst departs, so windows carry traffic
	// in both directions at once.
	h0 := f.HostEngine(0)
	for b := 0; b < 20; b++ {
		at := time.Duration(b) * 100 * us
		burst := b
		h0.At(at, func() {
			for k := 0; k < 4; k++ {
				var c atm.Cell
				c.VCI = 40
				c.Payload[0] = byte(4*burst + k)
				f.Uplink(0).Send(c)
			}
		})
	}
	root.Run()
	return append(log0, log1...)
}

func TestShardedStarMatchesSerial(t *testing.T) {
	serial := runEchoStar(t, false)
	sharded := runEchoStar(t, true)
	if len(serial) != len(sharded) {
		t.Fatalf("serial delivered %d cells, sharded %d", len(serial), len(sharded))
	}
	if len(serial) != 160 { // 80 cells at h1 + 80 echoes at h0
		t.Fatalf("delivered %d cells, want 160", len(serial))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("delivery %d differs:\n  serial : %s\n  sharded: %s", i, serial[i], sharded[i])
		}
	}
}
