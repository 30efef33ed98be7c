package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
// the golden loop and the benchmark loop with no other edit (cmd/unetbench
// has the same test for the CLI loop), where a missing pin fails and names
// the file to write; a row that breaks its Sharded promise is caught; and
// a pin that no golden case names is an orphan.
func TestRowIsPickedUp(t *testing.T) {
	calls := 0
	table := append(slices.Clone(All[:1]), Experiment{ID: "throwaway", Sharded: true, Run: func(Options) (string, string) {
		calls++
		return "constant\n", ""
	}})
	dir := t.TempDir()
	table1, err := os.ReadFile(filepath.Join(goldenDir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	pin := func(name, report string) {
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pin("table1", string(table1))
	if err := pinned(dir, "throwaway", "constant\n"); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "throwaway.txt")) {
		t.Errorf("a row with no pin compared as %v, want an error naming its file", err)
	}
	pin("throwaway", "constant\n")
	for _, loop := range []struct {
		name string
		run  func()
	}{
		{"serial golden", func() { goldens(t, dir, rowCases(table), false) }},
		{"shard golden", func() { goldens(t, dir, rowCases(table), true) }},
		{"benchmark", func() { testing.Benchmark(func(b *testing.B) { benchmark(b, table) }) }},
	} {
		before := calls
		loop.run()
		if calls == before {
			t.Errorf("the %s loop never ran the added row", loop.name)
		}
	}

	wrong := rowCases([]Experiment{{ID: "wrong", Sharded: true, Run: func(Options) (string, string) {
		return fmt.Sprintf("laid out on %d engines\n", Shards), ""
	}}})[0]
	pin(wrong.name, layout{}.render(wrong))
	if pinned(dir, wrong.name, layout{shards: 2}.render(wrong)) == nil {
		t.Error("a row whose report depends on Shards kept its Sharded promise")
	}

	named := map[string]bool{}
	for _, c := range goldenCases() {
		named[c.name+".txt"] = true
	}
	files, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !named[f.Name()] {
			t.Errorf("%s pins no golden case: delete it, or name its case in goldenCases", filepath.Join(goldenDir, f.Name()))
		}
	}
}
