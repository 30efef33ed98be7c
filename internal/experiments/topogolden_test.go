package experiments

import (
	"runtime"
	"testing"

	"unet/internal/topo"
)

// TestGoldenTopoSweep extends the shard-equivalence contract to
// multi-switch fabrics: the all-to-all storm over a 64-host 2-stage Clos
// (8 racks × 8 hosts, 2 spines; once more with enough messages per pair
// that the cross-shard rings grow) and over a small 3-stage Clos must render
// byte-identically — same virtual times, same stats — at shards 1, 2, 4
// and 8, with shard placement following the topology (each rack with its
// ToR on one shard, spines on the root engine). Only the shards= layout
// annotation may differ.
func TestGoldenTopoSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("topo golden sweep is not short")
	}
	norm := func(s string) string { return shardLabel.ReplaceAllString(s, "shards=*") }

	for _, tc := range []struct {
		kind                  string
		racks, perRack, spine int
		count                 int
	}{
		{"clos2", 8, 8, 2, 4},
		{"clos2", 8, 8, 2, 32}, // a ToR's uplink backlog outgrows the cross link's first ring
		{"clos3", 4, 2, 2, 4},
	} {
		storm := func(shards int) string {
			spec, err := topo.Generate(tc.kind, tc.racks, tc.perRack, tc.spine)
			if err != nil {
				t.Fatal(err)
			}
			report, _ := TopoStorm(spec, shards, tc.count)
			return norm(report)
		}
		serial := storm(0)
		if len(serial) == 0 {
			t.Fatalf("%s: empty serial rendering", tc.kind)
		}
		for _, k := range []int{1, 2, 4, 8} {
			if got := storm(k); got != serial {
				t.Fatalf("%s shards=%d diverged from serial:\n--- serial ---\n%s\n--- got ---\n%s",
					tc.kind, k, serial, got)
			}
		}
	}
}

// TestGossipDeterministic pins the 1k-endpoint island gossip: with every
// 16th island's uplink flapping, the full run — rumor spread, bounded
// queues, failure detection and removal — must be byte-identical between
// the serial engine and sharded execution, and the failure detector must
// actually have fired (removals are part of the pinned rendering, so a
// nondeterministic detector cannot hide).
func TestGossipDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-island gossip is not short")
	}
	cfg := DefaultGossip(1024)
	serial := Gossip(cfg)
	if serial.Removed == 0 {
		t.Fatal("no neighbor removals; the flap plan never tripped the failure detector")
	}
	if serial.Delivered == 0 || serial.Coverage < 2 {
		t.Fatalf("gossip did not spread: %+v", serial)
	}
	want := serial.Render()
	for _, shards := range []int{2, 4, 8} {
		cfg.Shards = shards
		if got := Gossip(cfg).Render(); got != want {
			t.Fatalf("shards=%d diverged:\n--- serial ---\n%s\n--- got ---\n%s", shards, want, got)
		}
	}
}

// TestGossipMemoryIsLinear is the set-up scaling gate: building (and
// closing) the island overlay allocates in proportion to the islands it
// has. Labels local to a link, next hops searched on demand and trunk
// timing looked up by index leave nothing that grows with islands² — with
// one fabric-wide VCI counter every demux table spanned every VCI opened
// before its last channel, and 4× the islands allocated ~16× the bytes.
func TestGossipMemoryIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("4k-island build is not short")
	}
	build := func(islands int) uint64 {
		cfg := DefaultGossip(islands)
		cfg.Rounds = 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Gossip(cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := build(1024), build(4096)
	if ratio := float64(large) / float64(small); ratio > 4.6 {
		t.Fatalf("4096 islands allocate %d bytes, 1024 islands %d: %.1fx for 4x the islands, want at most 4.6x", large, small, ratio)
	}
}
