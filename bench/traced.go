package main

import (
	"fmt"
	"path/filepath"
	"time"

	"unet/internal/uam"
)

// perLayerUnits lists every per-layer metric a traced run reports besides
// the ladder rungs, with its unit. A counter the narrow API cannot reach on
// a workload (the experiments calls own their testbed) reads 0 there.
var perLayerUnits = map[string]string{
	"sim.events":                   "count",
	"sim.ns_per_event":             "ns",
	"sim.events_per_s":             "1/s",
	"sim.bytes_per_event":          "B",
	"sim.shard_sync_wait_share":    "ratio",
	"sim.shard_windows":            "count",
	"sim.shard_stalls":             "count",
	"fabric.cells":                 "count",
	"fabric.cells_lost":            "count",
	"fabric.queue_drops":           "count",
	"nic.cells_in":                 "count",
	"nic.pdus_in":                  "count",
	"nic.doorbells":                "count",
	"nic.doorbell_coalesced_ratio": "ratio",
	"nic.bad_pdus":                 "count",
	"nic.fifo_drops":               "count",
	"unet.recv_drops":              "count",
	"unet.pool_live":               "count",
	"uam.retransmits":              "count",
	"uam.duplicates":               "count",
	"testbed.new_s":                "s",
	"testbed.mesh_s":               "s",
	"experiments.run_s":            "s",
	"testbed.close_s":              "s",
	"ladder.explained_ratio":       "ratio",
	"trace.overhead_pct":           "%",
}

// traced is the traced run: the ladder once, then for each workload
// repetitions alternating tracing off and on for half the measuring budget
// (at least two pairs). The traced repetitions give the spans and counters,
// the pairing gives the tracing overhead. Per-layer metrics include no
// process-wide figure, so the workloads share this process.
func traced(ws []*workload, seed int64, budget time.Duration) ([]measurement, error) {
	tr := newTracer()
	rungs, uamStats := runLadder(tr)
	var ms []measurement
	for _, w := range ws {
		ms = append(ms, tracedWorkload(w, seed, budget, tr, rungs, uamStats))
	}
	tr.finish()
	file := traceFile{Machine: machineRecord(), Seed: seed, Rungs: rungs, Spans: tr.spans, Metrics: map[string]map[string]float64{}}
	for _, m := range ms {
		file.Metrics[m.Workload] = map[string]float64{}
		for k, v := range m.Metrics {
			file.Metrics[m.Workload][k] = v.Value
		}
	}
	return ms, writeJSON(filepath.Join(outDir, "trace.json"), file)
}

func tracedWorkload(w *workload, seed int64, budget time.Duration, tr *tracer, rungs []rung, uamStats uam.Stats) measurement {
	tr.workload = w.name
	rungOf := map[string]float64{}
	m := measurement{Workload: w.name, Metrics: map[string]value{}}
	for _, r := range rungs {
		rungOf[r.Name] = r.Value
		m.Metrics[r.Name] = value{Value: r.Value, Unit: r.Unit}
	}

	var plain, withSpans []float64
	var last result
	var spent time.Duration
	for len(withSpans) < 2 || spent < budget/2 {
		settle()
		off := w.run(seed, false, nil)
		settle()
		end := tr.span("workload")
		on := w.run(seed, false, tr)
		end()
		plain, withSpans = append(plain, off.Total.Seconds()), append(withSpans, on.Total.Seconds())
		spent += off.Total + on.Total
		last = on
		for _, r := range []result{off, on} {
			m.Attempted += r.Attempted
			m.Failed += r.Attempted - r.Completed
			m.Violations = append(m.Violations, r.Violations...)
		}
	}
	reps := float64(len(withSpans))
	seconds := func(name string) float64 { return tr.seconds(w.name, name) / reps }

	// Construction the experiments call hides is charged to testbed.new_s
	// from the workload's own setup definition, and taken out of run_s.
	hidden := 0.0
	if seconds("testbed.new") == 0 && !w.runIncludesSetup {
		if last.Setup >= 0 {
			hidden = last.Setup.Seconds()
		} else {
			hidden = w.probe(seed, false).Seconds()
		}
	}
	set := func(name string, v float64) { m.Metrics[name] = value{Value: v, Unit: perLayerUnits[name]} }
	for name := range perLayerUnits {
		set(name, last.Counters[name])
	}
	set("testbed.new_s", seconds("testbed.new")+hidden)
	set("testbed.mesh_s", seconds("testbed.mesh"))
	set("testbed.close_s", seconds("testbed.close"))
	run := seconds("experiments.run") - hidden
	set("experiments.run_s", run)

	if ev := last.Counters["sim.events"]; ev > 0 {
		set("sim.ns_per_event", run*1e9/ev)
		set("sim.events_per_s", ev/run)
		set("sim.bytes_per_event", float64(last.RunAllocBytes)/ev)
	}
	set("sim.shard_sync_wait_share", last.Counters["sim.shard_sync_wait_ns"]/(run*1e9))
	set("uam.retransmits", float64(uamStats.Retransmits))
	set("uam.duplicates", float64(uamStats.Duplicates))
	if uamStats.Retransmits+uamStats.Duplicates > 0 {
		m.Violations = append(m.Violations, fmt.Sprintf("uam retransmits=%d duplicates=%d on a loss-free wire", uamStats.Retransmits, uamStats.Duplicates))
	}
	set("ladder.explained_ratio", w.explain(last, rungOf)/(run*1e9))
	set("trace.overhead_pct", 100*(median(withSpans)-median(plain))/median(plain))
	m.Correct = len(m.Violations) == 0
	return m
}
