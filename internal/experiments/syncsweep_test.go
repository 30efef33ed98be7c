package experiments

import (
	"fmt"
	"regexp"
	"testing"
)

// shardLabel is the storm header's layout annotation — the one part of the
// rendering that legitimately varies with the shard count.
var shardLabel = regexp.MustCompile(`shards=\d+`)

// TestGoldenSyncSweep is the equivalence contract of shard
// synchronization on the fixtures with contention in them: the 8-host storm
// (every switch output port fought over), the open-loop serve workload and
// the fault-injection soak must render byte-identical output serial and at
// every shard count — same virtual times, same stats, same formatting.
// Synchronization changes wall-clock time, never results.
func TestGoldenSyncSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sync golden sweep is not short")
	}
	defer func(s int) { Shards = s }(Shards)

	render := func() string {
		storm, _ := Storm(8, Shards, 40)
		storm = shardLabel.ReplaceAllString(storm, "shards=*")
		cfg := serveTestCfg()
		cfg.Shards = Shards
		return fmt.Sprintf("%v\n%v\n%v", storm, Serve(cfg).Line(), Chaos(DefaultChaos(FaultSeed)))
	}

	Shards = 0
	serial := render()
	if len(serial) == 0 {
		t.Fatal("empty serial rendering")
	}
	for _, k := range []int{1, 2, 4, 8} {
		Shards = k
		if got := render(); got != serial {
			t.Fatalf("shards=%d diverged from serial:\n--- serial ---\n%s\n--- got ---\n%s", k, serial, got)
		}
	}
}
