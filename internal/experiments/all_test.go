package experiments

import (
	"fmt"
	"slices"
	"testing"
)

// benchmark is BenchmarkExperiments' loop: a sub-benchmark per row of table
// at the scale `unetbench -experiment <id>` runs it, so ns/op is the
// wall-clock cost of regenerating that row.
func benchmark(b *testing.B, table []Experiment) {
	for _, e := range table {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if report, _ := e.Run(DefaultOptions()); report == "" {
					b.Fatal("empty report")
				}
			}
		})
	}
}

func BenchmarkExperiments(b *testing.B) { benchmark(b, All) }

// TestRowIsPickedUp is the point of the table: a row added to it reaches
// the golden loops and the benchmark loop with no other edit (cmd/unetbench
// has the same test for the CLI loop), and a row that breaks its Sharded
// promise is caught.
func TestRowIsPickedUp(t *testing.T) {
	calls := 0
	table := append(slices.Clone(All[:1]), Experiment{ID: "throwaway", Sharded: true, Run: func(Options) (string, string) {
		calls++
		return "constant\n", ""
	}})
	for _, loop := range []struct {
		name string
		run  func()
	}{
		{"rerun golden", func() { golden(t, table, rerunDivergence, nil) }},
		{"shard golden", func() { golden(t, sharded(table), shardDivergence, nil) }},
		{"benchmark", func() { testing.Benchmark(func(b *testing.B) { benchmark(b, table) }) }},
	} {
		before := calls
		loop.run()
		if calls == before {
			t.Errorf("the %s loop never ran the added row", loop.name)
		}
	}

	wrong := Experiment{ID: "wrong", Sharded: true, Run: func(Options) (string, string) {
		return fmt.Sprintf("laid out on %d engines\n", Shards), ""
	}}
	if shardDivergence(wrong, goldenOptions()) == nil {
		t.Error("a row whose report depends on Shards kept its Sharded promise")
	}
}
