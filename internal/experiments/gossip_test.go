package experiments

import (
	"runtime"
	"testing"
)

// TestGossipDeterministic checks that the gossip-1024 golden case pins
// what it is there for: with every 16th island's uplink flapping, the
// failure detector fires (removals are part of the pinned rendering, so a
// nondeterministic detector cannot hide) and the rumor spreads.
func TestGossipDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-island gossip is not short")
	}
	r := Gossip(DefaultGossip(1024))
	if r.Removed == 0 {
		t.Fatal("no neighbor removals; the flap plan never tripped the failure detector")
	}
	if r.Delivered == 0 || r.Coverage < 2 {
		t.Fatalf("gossip did not spread: %+v", r)
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
