package experiments

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// goldenOptions is the scale the table-wide goldens render at: small enough
// that the whole table takes seconds (minutes under the race detector),
// large enough that every row still exercises its mechanism — the loss
// sweep reaches retransmissions, the serve sweep crosses its knee, every
// 16th of the gossip islands flaps and is removed. TestGossipDeterministic
// holds the gossip at its full 1 024 islands.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Rounds, o.Count, o.Islands = 10, 40, 256
	return o
}

// shardLabel is the storm and serve headers' layout annotation — the one
// part of a report that legitimately varies with the shard count.
var shardLabel = regexp.MustCompile(`shards=\d+`)

// reportAt renders row e on shards shard engines (0 = serial).
func reportAt(e Experiment, o Options, shards int) string {
	defer func(old int) { Shards = old }(Shards)
	Shards = shards
	report, _ := e.Run(o)
	return shardLabel.ReplaceAllString(report, "shards=*")
}

// rerunDivergence holds row e to the determinism invariant behind every
// wall-clock optimization in the fast path (pooled events, cell-train
// batching, arithmetic NIC cost accounting, parallel sweeps): rendering it
// twice with the same seeds must produce byte-identical reports — same
// virtual times, same stats series, same formatting.
func rerunDivergence(e Experiment, o Options) error {
	_, err := rerun(e, o)
	return err
}

// rerun is rerunDivergence returning the report it compared.
func rerun(e Experiment, o Options) (string, error) {
	first, second := reportAt(e, o, 0), reportAt(e, o, 0)
	if first == "" {
		return "", fmt.Errorf("%s: empty report", e.ID)
	}
	if first != second {
		return "", fmt.Errorf("%s: same-seed reruns diverged:\n--- first ---\n%s\n--- second ---\n%s", e.ID, first, second)
	}
	return first, nil
}

// pinned is testdata/golden.sha256: one `id  sha256` line per row of All,
// the hash of the row's serial report at goldenOptions(). A rerun golden
// only shows a run equals its own rerun; this shows it equals the run of
// the commit that last wrote the line, so "the reports did not move" is a
// test result instead of a diff made by hand against the parent's binary.
// There is no -update flag: a change that means to move a report pastes the
// line the failure prints, and the file's history is the record of when
// each report moved.
//
//go:embed testdata/golden.sha256
var pinned string

// pinnedDivergence is rerunDivergence plus the comparison with the row's
// pinned hash, made on the report the rerun already rendered.
func pinnedDivergence(e Experiment, o Options) error {
	report, err := rerun(e, o)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%s  %x", e.ID, sha256.Sum256([]byte(report)))
	if !slices.Contains(strings.Split(pinned, "\n"), line) {
		return fmt.Errorf("%s: the report moved (or the row is new). If that is meant, testdata/golden.sha256 takes the line\n%s\n--- report ---\n%s", e.ID, line, report)
	}
	return nil
}

// shardDivergence holds row e to its Sharded promise, the determinism
// contract of the sharded engine: partitioning a simulation's hosts across
// shard goroutines — a degenerate single-shard group included, and more
// shards than cores where the machine is small — must be invisible in the
// report.
func shardDivergence(e Experiment, o Options) error {
	serial := reportAt(e, o, 0)
	for _, k := range []int{1, 2, 4} {
		if got := reportAt(e, o, k); got != serial {
			return fmt.Errorf("%s: shards=%d diverged from serial:\n--- serial ---\n%s\n--- sharded ---\n%s", e.ID, k, serial, got)
		}
	}
	return nil
}

// knownRed names the rows whose Sharded promise is known not to hold, and
// why. A divergence there is reported with its recipe and skipped rather
// than failed or hidden by dropping the row; any other row fails.
var knownRed = map[string]string{
	"serve": `ROADMAP item 1, split delivery trains at a contended switch port. Recipe:
Serve(ServeConfig{Rate: 140_000}) serial or at Shards 1 sums 18 258 386 526 ns of latency over
its 2 691 requests, at Shards 2, 4 and 8 it sums 18 258 150 604 ns (the printed mean moves
6785.0 → 6784.9 µs; counts, quantile buckets and end time agree). Past the knee six clients'
request bursts queue for two server ports: the serial link delivers a burst as one train whose
tail fwdFire books ahead of a cell from another port, the cross-shard link splits it. Loads up
to 120 000 req/s and 200 000 req/s agree exactly.`,
}

// golden is the loop both table-wide goldens share: a subtest per row of
// table holding it to check, skipping a failure known explains.
func golden(t *testing.T, table []Experiment, check func(Experiment, Options) error, known map[string]string) {
	if testing.Short() {
		t.Skip("table-wide golden sweep is not short")
	}
	for _, e := range table {
		t.Run(e.ID, func(t *testing.T) {
			err := check(e, goldenOptions())
			if why, ok := known[e.ID]; ok && err != nil {
				t.Skipf("known red — %s\n%v", why, err)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGoldenDeterminism(t *testing.T) {
	check := pinnedDivergence
	if runtime.GOARCH != "amd64" {
		// The reports print floating-point figures, and a compiler that
		// fuses multiply-add may round a last digit the other way.
		t.Logf("testdata/golden.sha256 is not compared on %s; reruns still are", runtime.GOARCH)
		check = rerunDivergence
	}
	golden(t, All, check, nil)
}

func TestGoldenShardSweep(t *testing.T) {
	golden(t, sharded(All), shardDivergence, knownRed)
}

// sharded returns the rows of table that promise a shard-invariant report.
func sharded(table []Experiment) []Experiment {
	return slices.DeleteFunc(slices.Clone(table), func(e Experiment) bool { return !e.Sharded })
}

// TestGoldenParallelMatchesSerial checks that the sweep worker pool is
// invisible in the output: every parallelism level must produce the bytes
// the serial sweep produces.
func TestGoldenParallelMatchesSerial(t *testing.T) {
	defer func(old int) { MaxParallel = old }(MaxParallel)

	MaxParallel = 1
	serial := fmt.Sprintf("%v\n%v", Fig4(40), Fig3(10))
	for _, workers := range []int{2, 8} {
		MaxParallel = workers
		if got := fmt.Sprintf("%v\n%v", Fig4(40), Fig3(10)); got != serial {
			t.Fatalf("parallel=%d diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}
