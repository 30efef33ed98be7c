package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	minReps         = 3 // timed repetitions per run, whatever --seconds says
	minSetupSamples = 9 // builds behind setup_s: each repetition's plus extra probes
	// Millisecond-scale builds repeat only as the median of many: keep
	// probing for an eighth of the measuring budget, up to maxSetupSamples.
	maxSetupSamples = 101
)

// dist summarizes repeated samples of one host-time metric.
type dist struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// quantile is the exclusive method of Python's statistics.quantiles, which
// the acceptance driver uses, so spreads printed here match its own.
func quantile(sorted []float64, i, n int) float64 {
	ld := len(sorted)
	if ld == 1 {
		return sorted[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (sorted[j-1]*(float64(n)-delta) + sorted[j]*delta) / float64(n)
}

func median(v []float64) float64 { return summarize(v).Median }

func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return dist{
		Median: quantile(s, 1, 2), Q1: quantile(s, 1, 4), Q3: quantile(s, 3, 4),
		Min: s[0], Max: s[len(s)-1], N: len(s), Samples: v,
	}
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / d.Median
}

// value is one reported metric: the figure itself, and for host-time
// metrics the distribution of the samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *dist   `json:"dist,omitempty"`
}

// measurement is one workload's entry in the ledger.
type measurement struct {
	Workload   string            `json:"workload"`
	Correct    bool              `json:"correct"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	Metrics    map[string]value  `json:"metrics"`
	Pinned     map[string]string `json:"-"` // reference.json is their record; the ledger carries sim_mismatch
	Violations []string          `json:"violations,omitempty"`
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// settle hands freed memory back to the kernel and restarts the resident
// high-water mark from what is left. Every repetition and every setup probe
// starts from it, so each build pays for its pages as a fresh process would
// and VmHWM is that repetition's own peak. Where /proc/self/clear_refs is
// not writable the mark stays process-wide and the repetitions report a
// running maximum.
func settle() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads this process's resident high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// repeat runs timed repetitions of w until they have used the measuring
// budget, then tops the construction samples up with probes. It returns the
// repetitions and every setup sample in seconds.
func repeat(w *workload, seed int64, budget time.Duration, small bool) ([]result, []float64) {
	var reps []result
	var setups []float64
	var spent time.Duration
	// One discarded build first: a fresh process's heap is untouched zero
	// pages, which makes its first build faster and its first peak RSS lower
	// than every later one. After it, all repetitions are alike.
	w.probe(seed, small)
	for len(reps) < minReps || spent < budget {
		settle()
		r := w.run(seed, small, nil)
		r.PeakRSSMB = peakRSSMB()
		reps = append(reps, r)
		spent += r.Total
		if r.Setup >= 0 {
			setups = append(setups, r.Setup.Seconds())
		}
	}
	need := minSetupSamples
	if small {
		need = minReps // bench_test.go checks that setup_s comes out, not that it repeats
	}
	for t0 := time.Now(); len(setups) < need || (time.Since(t0) < budget/8 && len(setups) < maxSetupSamples); {
		settle()
		setups = append(setups, w.probe(seed, small).Seconds())
	}
	return reps, setups
}

// runSeconds is a repetition's steady-state host time: what is left of
// Total after construction, except where users pay construction per point.
func runSeconds(w *workload, r result, setupMedian float64) float64 {
	switch {
	case w.runIncludesSetup:
		return r.Total.Seconds()
	case r.Setup >= 0:
		return (r.Total - r.Setup).Seconds()
	default:
		return r.Total.Seconds() - setupMedian
	}
}

// measure produces a workload's end-to-end ledger entry (tracing off).
func measure(w *workload, seed int64, budget time.Duration, small bool, ref *reference) measurement {
	reps, setups := repeat(w, seed, budget, small)
	m := measurement{Workload: w.name, Metrics: map[string]value{}, Pinned: reps[0].Pinned}
	setup := summarize(setups)

	var rate, alloc, rss []float64
	for i, r := range reps {
		m.Attempted += r.Attempted
		m.Failed += r.Attempted - r.Completed
		rate = append(rate, float64(r.Completed)/runSeconds(w, r, setup.Median))
		alloc = append(alloc, float64(r.AllocBytes)/1e6)
		rss = append(rss, r.PeakRSSMB)
		for _, v := range r.Violations {
			m.Violations = append(m.Violations, fmt.Sprintf("rep %d: %s", i, v))
		}
		if !samePinned(r.Pinned, reps[0].Pinned) {
			m.Violations = append(m.Violations, fmt.Sprintf("rep %d: simulated statistics differ from rep 0 at the same seed", i))
		}
	}
	put := func(name, unit string, samples []float64) {
		d := summarize(samples)
		m.Metrics[name] = value{Value: d.Median, Unit: unit, Dist: &d}
	}
	put("setup_s", "s", setups)
	put("msgs_per_s", "1/s", rate)
	put("alloc_mb", "MB", alloc)
	put("peak_rss_mb", "MB", rss)

	r0 := reps[0]
	m.Metrics["failed_ratio"] = value{Value: float64(m.Failed) / float64(m.Attempted), Unit: "ratio"}
	if r0.SimEnd > 0 {
		m.Metrics["sim_time_ms"] = value{Value: float64(r0.SimEnd) / float64(time.Millisecond), Unit: "ms"}
	}
	for name, v := range r0.Extra {
		m.Metrics[name] = v
	}
	if mismatch, checked := ref.mismatches(w, seed, small, r0.Pinned); checked {
		m.Metrics["sim_mismatch"] = value{Value: float64(len(mismatch)), Unit: "count"}
		for _, k := range mismatch {
			m.Violations = append(m.Violations, "differs from reference.json: "+k)
		}
	}
	m.Correct = len(m.Violations) == 0
	return m
}

func samePinned(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
