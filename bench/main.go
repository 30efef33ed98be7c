// Command bench is the repository's benchmark: six named workloads, an
// end-to-end ledger, and a layer ladder timed from outside. README.md in
// this directory says what each number means and which should move when.
//
//	go run ./bench                      every workload, one child process each
//	go run ./bench -trace               ladder + traced runs (per-layer metrics)
//	go run ./bench -compare old new     apply BENCHMARK.json's bounds
//	go run ./bench -selfcheck           same build twice, must agree within bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   (driver protocol)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir holds what a run leaves behind (span files, child ledgers). The
// root .gitignore names it.
const outDir = ".bench_build"

type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	LoadAvg    float64 `json:"loadavg_1m"`
	LoadHigh   bool    `json:"load_above_nproc"`
	Start      string  `json:"start"`
}

func machineRecord() machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", CPU: "unknown", Start: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &m.LoadAvg)
	}
	m.LoadHigh = m.LoadAvg > float64(m.NProc)
	return m
}

// ledger is the benchmark's JSON document: one run of some or all
// workloads on one machine. -compare reads one or more of them per side.
type ledger struct {
	Machine   machine       `json:"machine"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Workloads []measurement `json:"workloads"`
}

func (l *ledger) find(workload string) *measurement {
	for i := range l.Workloads {
		if l.Workloads[i].Workload == workload {
			return &l.Workloads[i]
		}
	}
	return nil
}

// failure reports the workloads whose invariants did not hold.
func (l *ledger) failure() error {
	var bad []string
	for _, m := range l.Workloads {
		if !m.Correct {
			bad = append(bad, m.Workload)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("invariant violations in %s", strings.Join(bad, ", "))
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics prints one line per metric: workload metric value unit, and
// the distribution behind a host-time median.
func printMetrics(workload string, metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := metrics[n]
		fmt.Printf("%-14s %-30s %14.6g %-6s", workload, n, v.Value, v.Unit)
		if d := v.Dist; d != nil {
			fmt.Printf(" q1=%.6g q3=%.6g min=%.6g max=%.6g n=%d spread=%.1f%%", d.Q1, d.Q3, d.Min, d.Max, d.N, 100*d.spread())
		}
		fmt.Println()
	}
}

// driverLine is the last line of a single-workload run: exactly the keys
// the acceptance driver reads, restricted to the metrics BENCHMARK.json
// declares for this mode.
func driverLine(m measurement, declared []metricDecl) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{m.Correct, m.Attempted, m.Failed, map[string]mv{}}
	for _, d := range declared {
		v, ok := m.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: declared metric %s was not measured", m.Workload, d.Name)
		}
		out.Metrics[d.Name] = mv{v.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

// report prints a workload's metrics and any violations.
func report(m measurement) {
	printMetrics(m.Workload, m.Metrics)
	for i, v := range m.Violations {
		if i == 10 {
			fmt.Printf("%-14s VIOLATION ... and %d more\n", m.Workload, len(m.Violations)-i)
			break
		}
		fmt.Printf("%-14s VIOLATION %s\n", m.Workload, v)
	}
}

// runHere measures in this process: one workload's end-to-end metrics, or
// the traced run of the given workloads. For a single workload the last line
// printed is the driver line.
func runHere(ws []*workload, o options, decl *declaration, ref *reference) (ledger, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	l := ledger{Machine: machineRecord(), Seed: o.seed, Seconds: o.seconds}
	declared := decl.EndToEnd
	if o.trace {
		declared = decl.PerLayer
		ms, err := traced(ws, o.seed, budget)
		if err != nil {
			return l, err
		}
		l.Workloads = ms
	} else {
		for _, w := range ws {
			l.Workloads = append(l.Workloads, measure(w, o.seed, budget, false, ref))
		}
	}
	for _, m := range l.Workloads {
		report(m)
	}
	if o.out != "" {
		if err := writeJSON(o.out, l); err != nil {
			return l, err
		}
	}
	if len(ws) == 1 {
		line, err := driverLine(l.Workloads[0], declared)
		if err != nil {
			return l, err
		}
		fmt.Println(line)
	}
	return l, nil
}

// runAll measures every workload's end-to-end metrics, each in a child
// process of its own, one after another, so peak RSS and GC history are per
// workload, and returns the merged ledger.
func runAll(o options) (ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return ledger{}, err
	}
	all := ledger{Machine: machineRecord(), Seed: o.seed, Seconds: o.seconds}
	for i := range workloads {
		w := &workloads[i]
		part := filepath.Join(outDir, "ledger-"+w.name+".json")
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", "0", "--out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		os.Remove(part)
		runErr := cmd.Run()
		// A child that found violations still leaves its ledger and exits 1;
		// keep going so the run reports every workload, and fail at the end.
		b, err := os.ReadFile(part)
		if err != nil {
			return all, fmt.Errorf("%s: %w", w.name, errors.Join(runErr, err))
		}
		var l ledger
		if err := json.Unmarshal(b, &l); err != nil {
			return all, fmt.Errorf("%s: %w", part, err)
		}
		all.Workloads = append(all.Workloads, l.Workloads...)
	}
	return all, nil
}

// normalizeTrace lets `-trace` stand alone (the documented traced run)
// while the driver's `--trace 0` / `--trace 1` keeps working: a bare flag
// becomes -trace=1.
func normalizeTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || (out[i+1] != "0" && out[i+1] != "1") {
			out[i] = "-trace=1"
		}
	}
	return out
}

func run() error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in-process (driver protocol); default: all, one child process each")
	seed := fs.Int64("seed", 1, "workload seed; the reference statistics are pinned at seed 1")
	seconds := fs.Float64("seconds", 0, "host seconds of timed repetitions per workload (at least 3 repetitions); default BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1: layer ladder plus traced runs, per-layer metrics; 0: end-to-end metrics")
	out := fs.String("out", "", "also write the run's JSON ledger to this file")
	compare := fs.Bool("compare", false, "compare two ledger files (old new) against BENCHMARK.json's bounds; exit 1 on a regression")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end set twice on this build; fail if medians disagree by more than their bounds")
	pinRef := fs.Bool("pin", false, "rewrite bench/reference.json from a seed-1 run (benchmark changes only)")
	if err := fs.Parse(normalizeTrace(os.Args[1:])); err != nil {
		return err
	}

	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: bench -compare old.json new.json")
		}
		return compareFiles(decl, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *pinRef {
		return pin(filepath.Join("bench", "reference.json"))
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if m := machineRecord(); m.LoadHigh {
		fmt.Printf("# WARNING load average %.2f exceeds nproc %d: host times below are suspect\n", m.LoadAvg, m.NProc)
	}
	if *selfcheck {
		return selfCheck(decl, o)
	}
	var all ledger
	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		all, err = runHere([]*workload{w}, o, decl, ref)
	case o.trace:
		ws := make([]*workload, len(workloads))
		for i := range workloads {
			ws[i] = &workloads[i]
		}
		all, err = runHere(ws, o, decl, ref)
	default:
		if all, err = runAll(o); err == nil && o.out != "" {
			err = writeJSON(o.out, all)
		}
	}
	if err != nil {
		return err
	}
	if *name == "" {
		b, err := json.Marshal(all)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return all.failure()
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
