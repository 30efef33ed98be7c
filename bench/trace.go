package main

import "time"

// span is one timed interval around a call the benchmark makes into a
// layer. Spans live in memory until the process exits; in-program spans are
// ROADMAP item 4, so every span here starts and ends in bench/ code.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index into the span list, -1 for a root
	SelfNS   int64  `json:"self_ns"`
}

// tracer records spans. A nil *tracer is the untraced run: span returns a
// no-op, so the workloads call it unconditionally.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now(), workload: "ladder"} }

// span opens a span named name under the innermost open span and returns
// the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNS = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// finish computes every span's self time: its duration minus the part its
// child spans cover.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
}

// seconds sums the durations of workload's spans named name.
func (t *tracer) seconds(workload, name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Workload == workload && s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// traceFile is what a traced run leaves behind: the spans, the full rung
// table (the per-layer metrics carry only the medians) and every workload's
// per-layer metrics.
type traceFile struct {
	Machine machine                       `json:"machine"`
	Seed    int64                         `json:"seed"`
	Rungs   []rung                        `json:"rungs"`
	Metrics map[string]map[string]float64 `json:"metrics"`
	Spans   []span                        `json:"spans"`
}
