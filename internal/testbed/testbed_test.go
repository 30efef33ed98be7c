package testbed

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
	"unet/internal/topo"
)

// TestPlacementOfTheCluster: every spec is laid out by one rule. Host i runs on shard
// engine i mod min(k, hosts), every switch transmits from the root, and
// the run is serial when that minimum is 1 or less. Net and Topo are one
// object whatever the layout.
func TestPlacementOfTheCluster(t *testing.T) {
	for _, cfg := range []Config{
		{Hosts: 8},
		{Hosts: 1},
		{Topology: topo.Clos2(4, 2, 2)},
		{Topology: topo.Island(5, 1)},
	} {
		for _, k := range []int{0, 1, 2, 4, 8, 16} {
			cfg.Shards = k
			tb := New(cfg)
			name := fmt.Sprintf("%s of %d hosts, shards=%d", tb.Topo.Spec.Kind, len(tb.Hosts), k)
			if tb.Net != tb.Topo {
				t.Fatalf("%s: Topo %p is not what Net holds", name, tb.Topo)
			}
			m := min(k, len(tb.Hosts))
			if (tb.Eng.Group() != nil) != (m > 1) {
				t.Errorf("%s: shard group %v, want one only when min(k, hosts) = %d > 1", name, tb.Eng.Group(), m)
			}
			engines := map[*sim.Engine]bool{}
			for i := range tb.Hosts {
				e := tb.Topo.HostEngine(i)
				engines[e] = true
				if m <= 1 && e != tb.Eng {
					t.Errorf("%s: host %d off the root engine of a serial testbed", name, i)
				}
				if m > 1 && (e == tb.Eng || e != tb.Topo.HostEngine(i%m)) {
					t.Errorf("%s: host %d is not on host %d's shard engine", name, i, i%m)
				}
				if tb.Topo.Uplink(i).Engine() != e {
					t.Errorf("%s: host %d's uplink transmits off its host's engine", name, i)
				}
				if tb.Topo.Downlink(i).Engine() != tb.Eng {
					t.Errorf("%s: the switch port toward host %d transmits off the root", name, i)
				}
			}
			if m > 1 && len(engines) != m {
				t.Errorf("%s: hosts on %d engines, want %d", name, len(engines), m)
			}
			for j := 0; j < tb.Topo.TrunkCount(); j++ {
				if tb.Topo.TrunkLink(j).Engine() != tb.Eng {
					t.Errorf("%s: trunk %d transmits off the root", name, j)
				}
			}
			tb.Close()
		}
	}
}

// TestConfigFillsSpecDefaults: the spec is the whole statement of the
// fabric's timing — its own HostLink and SwitchLatency are what the links
// and switches get — and New does not write to the caller's spec.
func TestConfigFillsSpecDefaults(t *testing.T) {
	spec := topo.Clos2(2, 1, 1)
	spec.HostLink = fabric.LinkParams{CellTime: 5 * time.Microsecond, Propagation: 7 * time.Microsecond}
	spec.SwitchLatency = 9 * time.Microsecond
	want := *topo.Clos2(2, 1, 1)
	want.HostLink, want.SwitchLatency = spec.HostLink, spec.SwitchLatency
	tb := New(Config{Topology: spec})
	defer tb.Close()
	if !reflect.DeepEqual(*spec, want) {
		t.Errorf("New wrote to the caller's spec: %+v", *spec)
	}
	for i := range tb.Hosts {
		if up, down := tb.Topo.Uplink(i).Params(), tb.Topo.Downlink(i).Params(); up != spec.HostLink || down != spec.HostLink {
			t.Errorf("host %d links %+v / %+v, want the spec's HostLink %+v", i, up, down, spec.HostLink)
		}
	}
	// One cell host 0 → host 1: 9 µs at each of leaf, spine and leaf, and
	// four links between.
	var at time.Duration
	tb.Topo.SetHostSink(1, fabric.SinkFunc(func(atm.Cell) { at = tb.Eng.Now() }))
	if err := tb.Topo.Route(0, 40, 1); err != nil {
		t.Fatal(err)
	}
	tb.Topo.Uplink(0).Send(atm.Cell{VCI: 40})
	tb.Eng.Run()
	trunk := fabric.DefaultCellTime + topo.DefaultTrunkPropagation
	if want := 2*(spec.HostLink.CellTime+spec.HostLink.Propagation) + 2*trunk + 3*spec.SwitchLatency; at != want {
		t.Errorf("cell crossed in %v, want %v", at, want)
	}
}

// TestDevicesAreNotProcesses: a NIC's processor is an event handler, so a
// testbed of any size starts no coroutine until application code spawns a
// process. (An iter.Pull coroutine is a goroutine to the runtime, and a
// sim.Proc's is created by its start event — which RunUntil(0) fires.)
func TestDevicesAreNotProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, hosts := range []int{2, 1024} {
		tb := New(Config{Hosts: hosts})
		tb.Eng.RunUntil(0)
		if steps := tb.Eng.Steps(); steps != uint64(hosts) {
			t.Errorf("%d hosts: %d events at time zero, want one first step a device", hosts, steps)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%d hosts: %d goroutines with every device started, %d before the testbed was built", hosts, got, base)
		}
		tb.Close()
	}
}
