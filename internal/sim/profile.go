package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ShardProfile accumulates one shard's window-protocol counters across
// Run/RunUntil calls. All counters are maintained by the shard's own
// worker goroutine, so the hot path pays plain increments — no atomics,
// no allocation. The wall-clock waits are diagnostic only and never feed
// virtual time.
type ShardProfile struct {
	Shard        int
	Windows      uint64        // windows executed (rounds that ran events)
	Events       uint64        // events fired inside windows
	EmptyWindows uint64        // windows that fired nothing
	FastForwards uint64        // windows the quiescence floor opened past the neighbor bound
	Drains       uint64        // ring drains performed
	Stalls       uint64        // blocked waits entered
	BarrierWait  time.Duration // wall-clock spent blocked on a neighbor's clock
	// EdgeWait attributes the wait to the in-neighbor whose published clock
	// bound the horizon at block time, indexed by source shard id. It
	// answers "who does this shard actually wait on" — the signal sparse
	// topologies need.
	EdgeWait []time.Duration
}

// EventsPerWindow reports the mean number of events fired per executed
// window.
func (p ShardProfile) EventsPerWindow() float64 {
	if p.Windows == 0 {
		return 0
	}
	return float64(p.Events) / float64(p.Windows)
}

// GroupProfile is a snapshot of every shard's window-protocol counters.
type GroupProfile struct {
	Shards []ShardProfile
}

// EdgeStat is one directed influence edge with its accumulated block time,
// as ranked by WorstEdges.
type EdgeStat struct {
	Src, Dst int
	Wait     time.Duration
}

// Profile snapshots the group's per-shard window counters. Call it after
// Run/RunUntil returns (it reads the shard workers' plain counters, which
// are quiescent between runs). Counters accumulate across runs.
func (g *Group) Profile() GroupProfile {
	out := GroupProfile{Shards: make([]ShardProfile, len(g.prof))}
	copy(out.Shards, g.prof)
	for i := range out.Shards {
		if ew := g.prof[i].EdgeWait; len(ew) > 0 {
			out.Shards[i].EdgeWait = append([]time.Duration(nil), ew...)
		}
	}
	return out
}

// Total folds every shard's counters into one (Shard is -1 in the result;
// EdgeWait is not folded — edges are per-destination, see WorstEdges).
func (gp GroupProfile) Total() ShardProfile {
	t := ShardProfile{Shard: -1}
	for _, p := range gp.Shards {
		t.Windows += p.Windows
		t.Events += p.Events
		t.EmptyWindows += p.EmptyWindows
		t.FastForwards += p.FastForwards
		t.Drains += p.Drains
		t.Stalls += p.Stalls
		t.BarrierWait += p.BarrierWait
	}
	return t
}

// WorstEdges ranks the directed edges by accumulated block time, worst
// first, dropping zero-wait edges. Ties break by (src, dst) so the
// ranking is deterministic.
func (gp GroupProfile) WorstEdges() []EdgeStat {
	var out []EdgeStat
	for _, p := range gp.Shards {
		for src, w := range p.EdgeWait {
			if w > 0 {
				out = append(out, EdgeStat{Src: src, Dst: p.Shard, Wait: w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wait != out[j].Wait {
			return out[i].Wait > out[j].Wait
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// String renders the profile as an aligned table — the `unetbench
// -simprof` dump — followed by the per-edge wait ranking when any edge
// accumulated block time.
func (gp GroupProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %10s %12s %8s %6s %8s %8s %8s %12s %10s\n",
		"shard", "windows", "events", "ev/win", "empty", "fastfwd", "drains", "stalls", "sync-wait", "wait/win")
	row := func(label string, p ShardProfile) {
		perWin := time.Duration(0)
		if p.Windows > 0 {
			perWin = p.BarrierWait / time.Duration(p.Windows)
		}
		fmt.Fprintf(&b, "%-5s %10d %12d %8.1f %6d %8d %8d %8d %12s %10s\n",
			label, p.Windows, p.Events, p.EventsPerWindow(), p.EmptyWindows,
			p.FastForwards, p.Drains, p.Stalls,
			p.BarrierWait.Round(time.Microsecond), perWin)
	}
	for _, p := range gp.Shards {
		row(fmt.Sprintf("%d", p.Shard), p)
	}
	row("total", gp.Total())
	if edges := gp.WorstEdges(); len(edges) > 0 {
		b.WriteString("edge waits (src→dst, worst first):\n")
		for _, e := range edges {
			fmt.Fprintf(&b, "  %d→%d %12s\n", e.Src, e.Dst, e.Wait.Round(time.Microsecond))
		}
	}
	return b.String()
}
