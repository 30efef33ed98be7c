package testbed

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/topo"
)

// TestPlacementOfTheCluster: the single-switch cluster puts host i on shard
// engine i mod min(k, hosts) and keeps the switch's links on the root, and
// Net and Topo are one object whether or not a Topology was given.
func TestPlacementOfTheCluster(t *testing.T) {
	for _, k := range []int{0, 1, 2, 4, 8, 16} {
		tb := New(Config{Hosts: 8, Shards: k})
		if tb.Topo == nil || tb.Net != fabric.Network(tb.Topo) {
			t.Fatalf("shards=%d: Topo %p is not what Net holds", k, tb.Topo)
		}
		m := min(k, 8)
		if m <= 1 {
			for i := range tb.Hosts {
				if tb.Net.HostEngine(i) != tb.Eng {
					t.Errorf("shards=%d: host %d off the root engine of a serial testbed", k, i)
				}
			}
		} else {
			if got := tb.Eng.Group().Shards(); got != m+1 {
				t.Errorf("shards=%d: %d engines, want the root and %d shards", k, got, m)
			}
			for i := range tb.Hosts {
				e := tb.Net.HostEngine(i)
				if e == tb.Eng || e != tb.Net.HostEngine(i%m) {
					t.Errorf("shards=%d: host %d is not on host %d's shard engine", k, i, i%m)
				}
				if i > 0 && i < m && e == tb.Net.HostEngine(i-1) {
					t.Errorf("shards=%d: hosts %d and %d share a shard engine", k, i-1, i)
				}
				if tb.Net.Downlink(i).Engine() != tb.Eng {
					t.Errorf("shards=%d: the switch's port %d transmits off the root", k, i)
				}
			}
		}
		tb.Close()
	}
	tb := New(Config{Topology: topo.Clos2(2, 2, 1), Shards: 2})
	defer tb.Close()
	if tb.Topo == nil || tb.Net != fabric.Network(tb.Topo) || len(tb.Hosts) != 4 {
		t.Fatalf("Topology path: Topo %p is not what Net holds, or %d hosts for 4", tb.Topo, len(tb.Hosts))
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
		if up, down := tb.Net.Uplink(i).Params(), tb.Net.Downlink(i).Params(); up != spec.HostLink || down != spec.HostLink {
			t.Errorf("host %d links %+v / %+v, want the spec's HostLink %+v", i, up, down, spec.HostLink)
		}
	}
	// One cell host 0 → host 1: 9 µs at each of leaf, spine and leaf, and
	// four links between.
	var at time.Duration
	tb.Net.SetHostSink(1, fabric.SinkFunc(func(atm.Cell) { at = tb.Eng.Now() }))
	if err := tb.Topo.Route(0, 40, 1); err != nil {
		t.Fatal(err)
	}
	tb.Net.Uplink(0).Send(atm.Cell{VCI: 40})
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
