package testbed

import (
	"reflect"
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

// TestConfigFillsSpecDefaults: Link and SwitchLatency reach a Topology
// fabric wherever the spec says nothing, a spec's own value wins, and the
// caller's spec is not written to.
func TestConfigFillsSpecDefaults(t *testing.T) {
	spec := topo.Clos2(2, 1, 1)
	want := *topo.Clos2(2, 1, 1)
	lp := fabric.LinkParams{CellTime: 5 * time.Microsecond, Propagation: 7 * time.Microsecond}
	tb := New(Config{Topology: spec, Link: &lp, SwitchLatency: 9 * time.Microsecond})
	defer tb.Close()
	if !reflect.DeepEqual(*spec, want) {
		t.Errorf("New wrote to the caller's spec: %+v", *spec)
	}
	for i := range tb.Hosts {
		if up, down := tb.Net.Uplink(i).Params(), tb.Net.Downlink(i).Params(); up != lp || down != lp {
			t.Errorf("host %d links %+v / %+v, want Config.Link %+v", i, up, down, lp)
		}
	}
	if got := tb.Topo.TrunkLink(0).Params().Propagation; got != topo.DefaultTrunkPropagation {
		t.Errorf("trunk propagation %v: Config.Link is host-link timing only", got)
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
	if want := 2*(lp.CellTime+lp.Propagation) + 2*trunk + 3*9*time.Microsecond; at != want {
		t.Errorf("cell crossed in %v, want %v with Config.SwitchLatency at every switch", at, want)
	}

	spec.HostLink = fabric.DefaultLinkParams()
	spec.SwitchLatency = time.Microsecond
	own := New(Config{Topology: spec, Link: &lp, SwitchLatency: 9 * time.Microsecond})
	defer own.Close()
	if got := own.Net.Uplink(0).Params(); got != spec.HostLink {
		t.Errorf("uplink %+v: the spec's own HostLink %+v must win over Config.Link", got, spec.HostLink)
	}
	if own.Topo.Spec.SwitchLatency != time.Microsecond {
		t.Errorf("switch latency %v: the spec's own must win over Config.SwitchLatency", own.Topo.Spec.SwitchLatency)
	}
}
