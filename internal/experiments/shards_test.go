package experiments

import (
	"strings"
	"testing"

	"unet/internal/topo"
)

// TestShardedRunIsReproducible runs the 64-host two-stage Clos storm, 500
// messages a host, four times on two shards and twice on four, and wants
// one report from all six: a sharded run is a function of its inputs, the
// same in every run and at every shard count of at least two. The first
// line, which names the shard count, is left out. Equality with the serial
// run is not asserted: at a contended switch port a receive half's trains
// are cut where windows end, and serially they are not (ROADMAP item 1).
func TestShardedRunIsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("six 64-host storms are not short")
	}
	var want string
	for i, k := range []int{2, 2, 2, 2, 4, 4} {
		_, body, _ := strings.Cut(TopoStorm(topo.Clos2(8, 8, 2), k, 500), "\n")
		if i == 0 {
			want = body
			continue
		}
		if body != want {
			t.Fatalf("run %d at %d shards differs from the first at 2:\n%s", i, k, lineDiff(want, body))
		}
	}
}
