package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDecl is one metric as BENCHMARK.json declares it. Per-layer
// metrics carry no bound.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is the part of BENCHMARK.json the benchmark itself reads.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// lookup returns the declared end-to-end metric, or the rule for a ledger
// metric BENCHMARK.json does not list: those are the simulated statistics
// and failure counts, which are exact — lower is better and any worsening
// at all is a regression.
func (d *declaration) lookup(name string) metricDecl {
	for _, m := range d.EndToEnd {
		if m.Name == name {
			return m
		}
	}
	return metricDecl{Name: name, Better: "lower", Bound: 0}
}

// readLedgers reads a file holding one ledger or several concatenated
// (one per run of the benchmark: `go run ./bench -out` appended ten times
// gives the paired runs the gain rule wants).
func readLedgers(path string) ([]ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []ledger
	dec := json.NewDecoder(f)
	for {
		var l ledger
		if err := dec.Decode(&l); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, l)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no ledger", path)
	}
	return runs, nil
}

// row is one workload x metric pairing of a comparison.
type row struct {
	Workload, Metric, Unit string
	Base, New              float64 // medians over each side's runs
	Worse                  float64 // share of Base by which New is worse (negative: better)
	Spread                 float64 // widest run-to-run quartile spread of the two sides
	Bound                  float64
	Wins, Pairs            int // paired runs New won; Pairs is 0 when the sides are not paired
	Verdict                string
}

const (
	verdictOK         = "ok"
	verdictGain       = "gain"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// series collects one metric's per-run values and, for a single run, the
// spread of the repetitions inside it.
func series(runs []ledger, workload, metric string) (vals []float64, unit string, inner float64) {
	for i := range runs {
		m := runs[i].find(workload)
		if m == nil {
			continue
		}
		if v, ok := m.Metrics[metric]; ok {
			vals, unit = append(vals, v.Value), v.Unit
			if v.Dist != nil {
				inner = math.Max(inner, v.Dist.spread())
			}
		}
	}
	return vals, unit, inner
}

func runSpread(vals []float64, inner float64) float64 {
	if len(vals) >= 2 {
		return summarize(vals).spread()
	}
	return inner
}

// compareRuns applies each metric's bound to the medians of two sets of
// runs. With symmetric set, a difference in either direction counts (the
// self-check: two runs of one build have no "better" side).
func compareRuns(decl *declaration, olds, news []ledger, symmetric bool) []row {
	var rows []row
	for _, wm := range olds[0].Workloads {
		names := make([]string, 0, len(wm.Metrics))
		for n := range wm.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			d := decl.lookup(name)
			ov, unit, oin := series(olds, wm.Workload, name)
			nv, _, nin := series(news, wm.Workload, name)
			r := row{Workload: wm.Workload, Metric: name, Unit: unit, Bound: d.Bound}
			if len(nv) == 0 {
				r.Base, r.Verdict = median(ov), verdictRegression // the metric disappeared
				rows = append(rows, r)
				continue
			}
			r.Base, r.New = median(ov), median(nv)
			r.Spread = math.Max(runSpread(ov, oin), runSpread(nv, nin))
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			if r.Base != 0 {
				r.Worse = sign * (r.New - r.Base) / math.Abs(r.Base)
			} else if r.New != 0 {
				r.Worse = sign * math.Inf(1) * r.New
			}
			if symmetric {
				r.Worse = math.Abs(r.Worse)
			}
			better := func(a, b float64) bool { return sign*(a-b) < 0 }

			allBetter := !symmetric
			for _, n := range nv {
				for _, o := range ov {
					allBetter = allBetter && better(n, o)
				}
			}
			if !symmetric && len(ov) == len(nv) && len(ov) >= 10 {
				r.Pairs = len(ov)
				for i := range ov {
					if better(nv[i], ov[i]) {
						r.Wins++
					}
				}
			}
			oq := summarize(ov)
			switch {
			case r.Worse > r.Bound && r.Spread > r.Bound:
				r.Verdict = verdictUnresolved
			case r.Worse > r.Bound:
				r.Verdict = verdictRegression
			case r.Pairs > 0 && 10*r.Wins >= 9*r.Pairs && math.Abs(r.New-r.Base) > oq.Q3-oq.Q1:
				r.Verdict = verdictGain
			case r.Spread > r.Bound && r.Bound > 0 && !allBetter:
				r.Verdict = verdictUnresolved
			default:
				r.Verdict = verdictOK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// printRows prints one row per workload x metric with its base value and
// returns the number of regressions.
func printRows(rows []row) int {
	bad := 0
	fmt.Printf("%-14s %-20s %14s %14s %-6s %9s %8s %7s %6s  %s\n",
		"workload", "metric", "base", "new", "unit", "worse", "spread", "bound", "pairs", "verdict")
	for _, r := range rows {
		pairs := "-"
		if r.Pairs > 0 {
			pairs = fmt.Sprintf("%d/%d", r.Wins, r.Pairs)
		}
		fmt.Printf("%-14s %-20s %14.6g %14.6g %-6s %+8.2f%% %7.2f%% %6.1f%% %6s  %s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, 100*r.Worse, 100*r.Spread, 100*r.Bound, pairs, r.Verdict)
		if r.Verdict == verdictRegression {
			bad++
		}
	}
	return bad
}

func compareFiles(decl *declaration, oldPath, newPath string) error {
	olds, err := readLedgers(oldPath)
	if err != nil {
		return err
	}
	news, err := readLedgers(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("# base %s: %d run(s), %s, nproc %d, commit %s\n", oldPath, len(olds), olds[0].Machine.CPU, olds[0].Machine.NProc, olds[0].Machine.Commit)
	fmt.Printf("# new  %s: %d run(s), %s, nproc %d, commit %s\n", newPath, len(news), news[0].Machine.CPU, news[0].Machine.NProc, news[0].Machine.Commit)
	if bad := printRows(compareRuns(decl, olds, news, false)); bad > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds in BENCHMARK.json", bad)
	}
	return nil
}

// selfCheck runs the full end-to-end set twice on the same build. Two
// medians that disagree by more than the metric's own bound mean the bound
// or the repetition count is wrong, whatever the code under test does.
func selfCheck(decl *declaration, o options) error {
	o.trace, o.out = false, ""
	first, err := runAll(o)
	if err != nil {
		return err
	}
	second, err := runAll(o)
	if err != nil {
		return err
	}
	if err := errors.Join(first.failure(), second.failure()); err != nil {
		return err
	}
	rows := compareRuns(decl, []ledger{first}, []ledger{second}, true)
	printRows(rows)
	bad := 0
	for _, r := range rows {
		if r.Worse > r.Bound { // same build: beyond the bound is the benchmark's fault, noisy or not
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metric(s) disagree between two runs of the same build by more than their bound", bad)
	}
	fmt.Println("# self-check passed: every metric's two medians agree within its bound")
	return nil
}
