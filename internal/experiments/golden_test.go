package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"unet/internal/topo"
)

// goldenOptions is the scale the table-wide goldens render at: small enough
// that the whole table takes seconds (minutes under the race detector),
// large enough that every row still exercises its mechanism — the loss
// sweep reaches retransmissions, the serve sweep crosses its knee, every
// 16th of the gossip islands flaps and is removed. The gossip-1024 case
// holds the gossip at its full 1 024 islands.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Rounds, o.Count, o.Islands = 10, 40, 256
	return o
}

// goldenDir holds a pin per golden case, <case>.txt: the case's serial
// report. A rerun golden only shows a run equals its own rerun; a pin shows
// it equals the run of the commit that last wrote the file, so "the reports
// did not move" is a test result instead of a diff made by hand against the
// parent's binary. There is no -update flag: a change that means to move a
// report writes the file the failure names, and the file's history is the
// record of when each report moved.
const goldenDir = "testdata/golden"

// A goldenCase is one report the goldens pin. Every layout it promises —
// serial at any number of sweep workers, and each of its shard counts —
// must render the bytes of its file in goldenDir.
type goldenCase struct {
	name   string
	render func() string // lays the simulation out on Shards engines
	shards []int         // the shard counts it promises; none for one engine
}

// goldenCases is the table: every row of All at goldenOptions(), and the
// scenarios no row renders at their scale — Clos storms at shards 8, one
// with ToR-to-spine backlogs of hundreds of cells; the gossip at its full
// 1 024 islands; a small serve cluster under Poisson and bursty arrivals.
func goldenCases() []goldenCase {
	cases := rowCases(All)
	for _, s := range []struct {
		kind                         string
		racks, perRack, spine, count int
	}{{"clos2", 8, 8, 2, 4}, {"clos2", 8, 8, 2, 32}, {"clos3", 4, 2, 2, 4}} {
		cases = append(cases, goldenCase{fmt.Sprintf("topo-%s-count%d", s.kind, s.count), func() string {
			spec, err := topo.Generate(s.kind, s.racks, s.perRack, s.spine)
			mustNoErr(err, s.kind)
			return TopoStorm(spec, Shards, s.count)
		}, []int{1, 2, 4, 8}})
	}
	cases = append(cases, goldenCase{"gossip-1024", func() string {
		cfg := DefaultGossip(1024)
		cfg.Shards = Shards
		return Gossip(cfg).Render()
	}, []int{2, 4, 8}})
	for _, arrivals := range []string{"poisson", "bursty"} {
		cases = append(cases, goldenCase{"serve-" + arrivals, func() string {
			cfg := ServeConfig{ClientHosts: 4, Servers: 2, LogicalPerHost: 256, Rate: 60_000, Duration: 5 * time.Millisecond}
			cfg.Bursty, cfg.Shards = arrivals == "bursty", Shards
			return Serve(cfg).Line() + "\n"
		}, []int{2, 4, 8}})
	}
	return cases
}

// rowCases returns table's rows as golden cases: a row's pin is its report
// at goldenOptions(), and a Sharded row promises shards 1, 2 and 4 (a
// degenerate single-shard group included, and more shards than cores where
// the machine is small).
func rowCases(table []Experiment) []goldenCase {
	var cases []goldenCase
	for _, e := range table {
		c := goldenCase{name: e.ID, render: func() string {
			report, _ := e.Run(goldenOptions())
			return report
		}}
		if e.Sharded {
			c.shards = []int{1, 2, 4}
		}
		cases = append(cases, c)
	}
	return cases
}

// A layout is one way to render a case: on shards engines (0 = serial),
// with parallel sweep workers (0 = GOMAXPROCS).
type layout struct{ shards, parallel int }

func (l layout) String() string {
	if l.shards == 0 {
		return fmt.Sprintf("serial, parallel=%d", l.parallel)
	}
	return fmt.Sprintf("shards=%d", l.shards)
}

// shardLabel is the storm and serve headers' layout annotation — the one
// part of a report that legitimately varies with the shard count.
var shardLabel = regexp.MustCompile(`shards=\d+`)

// render renders c laid out as l, with the shards= label normalised.
func (l layout) render(c goldenCase) string {
	defer func(s, p int) { Shards, MaxParallel = s, p }(Shards, MaxParallel)
	Shards, MaxParallel = l.shards, l.parallel
	return shardLabel.ReplaceAllString(c.render(), "shards=*")
}

// knownRed names the cases whose shard promise is known not to hold, and
// why. A divergence there at shards ≥ 2 is reported with its recipe and
// skipped rather than failed or hidden by dropping the case; any other
// case fails.
var knownRed = map[string]string{
	"serve": `ROADMAP item 1, split delivery trains at a contended switch port. Recipe:
Serve(ServeConfig{Rate: 140_000}) serial or at Shards 1 sums 18 258 386 526 ns of latency over
its 2 691 requests, at Shards 2, 4 and 8 it sums 18 258 150 604 ns (the printed mean moves
6785.0 → 6784.9 µs; counts, quantile buckets and end time agree). Past the knee six clients'
request bursts queue for two server ports: the serial link delivers a burst as one train whose
tail fwdFire books ahead of a cell from another port, the cross-shard link splits it. Loads up
to 120 000 req/s and 200 000 req/s agree exactly.`,
}

// goldens is the one golden loop: a subtest per case, which renders the
// case under each layout it promises and compares every render with the
// case's pin in dir. Serial, that is 1 and 8 sweep workers: the same seeds
// give the same bytes however the sweep's points are spread over workers.
// With sharded set, it is each of the case's shard counts: partitioning a
// simulation's hosts across shard goroutines is invisible in the report.
func goldens(t *testing.T, dir string, cases []goldenCase, sharded bool) {
	if testing.Short() {
		t.Skip("the goldens are not short")
	}
	for _, c := range cases {
		layouts := []layout{{parallel: 1}, {parallel: 8}}
		if sharded {
			layouts = nil
			for _, k := range c.shards {
				layouts = append(layouts, layout{shards: k})
			}
		}
		if len(layouts) == 0 {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			check := func(got string) error { return pinned(dir, c.name, got) }
			if runtime.GOARCH != "amd64" {
				// The reports print floating-point figures, and a compiler
				// that fuses multiply-add may round a last digit the other
				// way: there, layouts are held to this run's serial render.
				serial := layout{parallel: 1}.render(c)
				check = func(got string) error {
					if d := lineDiff(serial, got); d != "" {
						return fmt.Errorf("diverged from this run's serial render (-serial +got):\n%s", d)
					}
					return nil
				}
			}
			for _, l := range layouts {
				err := check(l.render(c))
				if why, ok := knownRed[c.name]; ok && err != nil && l.shards >= 2 {
					t.Skipf("known red at %v — %s\n%v", l, why, err)
				}
				if err != nil {
					t.Fatalf("%v: %v", l, err)
				}
			}
		})
	}
}

// pinned compares got with its pin, dir/<name>.txt: the one place a render
// meets its file.
func pinned(dir, name, got string) error {
	file := filepath.Join(dir, name+".txt")
	want, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("%v: if the case is new, write its report there:\n%s", err, got)
	}
	if d := lineDiff(string(want), got); d != "" {
		return fmt.Errorf("the report moved from %s (-pinned +got); if that is meant, write the new report there:\n%s", file, d)
	}
	return nil
}

// lineDiff lists, by line number, the lines where got differs from want.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		if i < len(w) && i < len(g) && w[i] == g[i] {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n", i+1)
		if i < len(w) {
			fmt.Fprintf(&b, "-%s\n", w[i])
		}
		if i < len(g) {
			fmt.Fprintf(&b, "+%s\n", g[i])
		}
	}
	return b.String()
}

func TestGoldenDeterminism(t *testing.T) { goldens(t, goldenDir, goldenCases(), false) }

func TestGoldenShardSweep(t *testing.T) { goldens(t, goldenDir, goldenCases(), true) }
