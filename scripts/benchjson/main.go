// Command benchjson condenses `go test -bench` output into a small JSON
// summary (`make bench`'s output): one entry per benchmark with the mean of every
// reported metric across -count repetitions, plus the parallelism the
// numbers were measured at — GOMAXPROCS (parsed from each benchmark's name
// suffix) and the machine's CPU count — so a single-core artifact can
// never be misread as a multi-core regression. The raw
// benchstat-compatible text sits next to it; the JSON is for dashboards
// and PR descriptions.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type accum struct {
	runs       int
	gomaxprocs int
	topo       string
	hosts      int
	switches   int
	stages     int
	metrics    map[string][]float64
}

// tag extracts the value of a "key=value" sub-benchmark path segment
// ("BenchmarkX/topo=clos2/hosts=64/..."), or "" when absent.
func tag(name, key string) string {
	marker := "/" + key + "="
	i := strings.Index(name, marker)
	if i < 0 {
		return ""
	}
	v := name[i+len(marker):]
	if j := strings.IndexByte(v, '/'); j >= 0 {
		v = v[:j]
	}
	return v
}

func intTag(name, key string) int {
	n, _ := strconv.Atoi(tag(name, key))
	return n
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchjson bench.txt out.json")
		os.Exit(2)
	}
	in, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer in.Close()

	bench := map[string]*accum{}
	var order []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		// The name's numeric suffix is the GOMAXPROCS the benchmark ran at
		// (go test omits it at GOMAXPROCS=1).
		name, procs := f[0], 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		a := bench[name]
		if a == nil {
			a = &accum{metrics: map[string][]float64{}}
			bench[name] = a
			order = append(order, name)
		}
		a.runs++
		a.gomaxprocs = procs
		// Topology benchmarks tag their sub-benchmark names with the
		// compiled fabric's shape; entries without the tags are the
		// single-switch cluster.
		a.topo = tag(name, "topo")
		a.hosts = intTag(name, "hosts")
		a.switches = intTag(name, "switches")
		a.stages = intTag(name, "stages")
		// f[1] is the iteration count; then (value, unit) pairs follow.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			a.metrics[f[i+1]] = append(a.metrics[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	type entry struct {
		Name       string `json:"name"`
		Runs       int    `json:"runs"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"numcpu"`
		// Topology metadata, present on multi-switch fabric benchmarks:
		// the generated shape and its size (internal/topo).
		Topo     string             `json:"topo,omitempty"`
		Hosts    int                `json:"hosts,omitempty"`
		Switches int                `json:"switches,omitempty"`
		Stages   int                `json:"stages,omitempty"`
		Metrics  map[string]float64 `json:"metrics"`
	}
	var out []entry
	for _, name := range order {
		a := bench[name]
		m := map[string]float64{}
		for unit, vs := range a.metrics {
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			m[unit] = sum / float64(len(vs))
		}
		out = append(out, entry{
			Name: name, Runs: a.runs,
			GOMAXPROCS: a.gomaxprocs, NumCPU: runtime.NumCPU(),
			Topo: a.topo, Hosts: a.hosts, Switches: a.switches, Stages: a.stages,
			Metrics: m,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(os.Args[2], append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
