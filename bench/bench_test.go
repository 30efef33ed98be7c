package main

import (
	"math"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"unet/internal/uam"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func declared(t *testing.T) *declaration {
	t.Helper()
	d, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesProgram pins BENCHMARK.json to what the program
// emits: same workloads, and exactly the per-layer names a traced run sets.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := declared(t)
	var got, want []string
	for _, w := range d.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}

	emitted := map[string]string{}
	for name, unit := range perLayerUnits {
		emitted[name] = unit
	}
	for _, s := range ladderSpecs(new(uam.Stats)) {
		emitted[s.name] = s.unit
	}
	for _, m := range d.PerLayer {
		if unit, ok := emitted[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s [%s]: traced runs emit unit %q (present=%v)", m.Name, m.Unit, unit, ok)
		}
		delete(emitted, m.Name)
	}
	for name := range emitted {
		t.Errorf("traced runs emit %s, BENCHMARK.json does not declare it", name)
	}

	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, d.EndToEnd...), d.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name/unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := d.lookup("setup_s"); s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s declared as %+v", s)
	}
	for _, m := range d.EndToEnd {
		if m.Bound > d.lookup("setup_s").Bound {
			t.Errorf("%s bound %v exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
}

// TestWorkloadsSmall runs every workload at about 1/100 size and checks
// that each declared end-to-end metric comes out, with the declared unit,
// and that the workloads' invariants hold.
func TestWorkloadsSmall(t *testing.T) {
	d := declared(t)
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]measurement{}
	for i := range workloads {
		w := &workloads[i]
		m := measure(w, 1, 0, true, ref)
		got[w.name] = m
		if !m.Correct {
			t.Errorf("%s: violations %v", w.name, m.Violations)
		}
		if m.Attempted == 0 || m.Failed != 0 || m.Metrics["failed_ratio"].Value != 0 {
			t.Errorf("%s: attempted %d failed %d", w.name, m.Attempted, m.Failed)
		}
		for _, e := range d.EndToEnd {
			v, ok := m.Metrics[e.Name]
			if !ok || v.Unit != e.Unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, e.Name, v, e.Unit)
			}
		}
		for name, v := range m.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
				t.Errorf("%s: metric %q unit %q", w.name, name, v.Unit)
			}
		}
		if _, err := driverLine(m, d.EndToEnd); err != nil {
			t.Error(err)
		}
	}
	if a, b := got["storm8_shard2"].Pinned, got["storm8"].Pinned; !samePinned(a, b) {
		t.Errorf("storm8_shard2 per-host results differ from storm8:\n%v\n%v", a, b)
	}
	for _, name := range []string{"sim_p50_us", "sim_p999_us", "sim_time_ms"} {
		if v := got["serve_knee"].Metrics[name]; !(v.Value > 0) {
			t.Errorf("serve_knee %s = %+v", name, v)
		}
	}
	if v := got["fig4_sweep"].Metrics["paper_err_pct"].Value; !(v > 0 && v < 25) {
		t.Errorf("fig4_sweep paper_err_pct = %v", v)
	}
}

// TestStormCountersAndSpans checks the traced path on the cheapest storm:
// every layer's counters are read, the leak and loss invariants hold, and
// spans nest with self time = duration - children.
func TestStormCountersAndSpans(t *testing.T) {
	tr := newTracer()
	end := tr.span("workload")
	r := findWorkload("storm8").run(1, true, tr)
	end()
	tr.finish()
	if len(r.Violations) > 0 {
		t.Fatal(r.Violations)
	}
	for _, name := range []string{"sim.events", "fabric.cells", "nic.cells_in", "nic.pdus_in", "nic.doorbells"} {
		if r.Counters[name] <= 0 {
			t.Errorf("%s = %v", name, r.Counters[name])
		}
	}
	for _, name := range []string{"fabric.cells_lost", "fabric.queue_drops", "nic.bad_pdus", "nic.fifo_drops", "unet.recv_drops", "unet.pool_live"} {
		if r.Counters[name] != 0 {
			t.Errorf("%s = %v, want 0", name, r.Counters[name])
		}
	}
	if got := r.Counters["nic.pdus_in"]; got != float64(r.Completed) {
		t.Errorf("nic.pdus_in %v != messages received %d", got, r.Completed)
	}
	var names []string
	var children int64
	for _, s := range tr.spans {
		names = append(names, s.Name)
		if s.Parent == 0 {
			children += s.EndNS - s.StartNS
		}
	}
	want := []string{"workload", "testbed.new", "testbed.mesh", "experiments.run", "testbed.close"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spans %v, want %v", names, want)
	}
	root := tr.spans[0]
	if root.SelfNS != root.EndNS-root.StartNS-children || root.SelfNS < 0 {
		t.Errorf("root self %d, duration %d, children %d", root.SelfNS, root.EndNS-root.StartNS, children)
	}
}

// TestLadderBodies runs every rung body once at a tiny operation count, so
// a change to a layer's exported API breaks here and not only in -trace.
func TestLadderBodies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1024-host fixtures")
	}
	var us uam.Stats
	for _, s := range ladderSpecs(&us) {
		n := s.fixed
		if n == 0 {
			n = 8
		}
		if x := s.body(n); x.d <= 0 && !s.bytes {
			t.Errorf("%s: batch took %v", s.name, x.d)
		}
	}
	if us.Retransmits+us.Duplicates != 0 {
		t.Errorf("uam retransmits %d duplicates %d on a loss-free wire", us.Retransmits, us.Duplicates)
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 || d.Min != 1 || d.Max != 10 || d.N != 10 {
		t.Errorf("%+v", d)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if d := summarize([]float64{1, 2, 4}); d.Q1 != 1 || d.Median != 2 || d.Q3 != 4 {
		t.Errorf("%+v", d)
	}
}

// synthetic builds a one-workload ledger with the given metric values. As
// in a real ledger, the host-time medians carry a distribution (here 1 %
// wide) and the exact simulated statistics carry none.
func synthetic(vals map[string]float64) ledger {
	m := measurement{Workload: "w", Correct: true, Metrics: map[string]value{}}
	for name, v := range vals {
		m.Metrics[name] = value{Value: v, Unit: "x"}
		if name == "msgs_per_s" || name == "setup_s" || name == "alloc_mb" {
			d := summarize([]float64{v * 0.995, v, v * 1.005})
			m.Metrics[name] = value{Value: v, Unit: "x", Dist: &d}
		}
	}
	return ledger{Workloads: []measurement{m}}
}

func verdicts(rows []row) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		out[r.Metric] = r.Verdict
	}
	return out
}

func TestCompare(t *testing.T) {
	d := declared(t)
	rate, setup := d.lookup("msgs_per_s").Bound, d.lookup("setup_s").Bound
	base := synthetic(map[string]float64{"msgs_per_s": 1000, "setup_s": 1, "alloc_mb": 100, "sim_time_ms": 50, "failed_ratio": 0})

	// Ten points beyond the bound is flagged, in either direction of "better".
	bad := synthetic(map[string]float64{"msgs_per_s": 1000 * (1 - rate - 0.1), "setup_s": 1 + setup + 0.1, "alloc_mb": 100, "sim_time_ms": 50, "failed_ratio": 0})
	got := verdicts(compareRuns(d, []ledger{base}, []ledger{bad}, false))
	want := map[string]string{"msgs_per_s": verdictRegression, "setup_s": verdictRegression, "alloc_mb": verdictOK, "sim_time_ms": verdictOK, "failed_ratio": verdictOK}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("regression beyond the bound: %v, want %v", got, want)
	}

	// A third of the bound passes; an exact metric may not move at all.
	near := synthetic(map[string]float64{"msgs_per_s": 1000 * (1 - rate/3), "setup_s": 1 + setup/3, "alloc_mb": 100, "sim_time_ms": 50.001, "failed_ratio": 0.001})
	got = verdicts(compareRuns(d, []ledger{base}, []ledger{near}, false))
	want = map[string]string{"msgs_per_s": verdictOK, "setup_s": verdictOK, "alloc_mb": verdictOK, "sim_time_ms": verdictRegression, "failed_ratio": verdictRegression}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("change inside the bound: %v, want %v", got, want)
	}

	// Runs that scatter by more than the bound cannot carry a verdict.
	var noisyOld, noisyNew, steadyNew []ledger
	for i := 0; i < 10; i++ {
		scatter := 1 + 4*rate*float64(i)/9
		noisyOld = append(noisyOld, synthetic(map[string]float64{"msgs_per_s": 1000 * scatter}))
		noisyNew = append(noisyNew, synthetic(map[string]float64{"msgs_per_s": 1000 * (1 - rate - 0.1) * scatter}))
		steadyNew = append(steadyNew, synthetic(map[string]float64{"msgs_per_s": 5000 * scatter}))
	}
	if got := verdicts(compareRuns(d, noisyOld, noisyNew, false))["msgs_per_s"]; got != verdictUnresolved {
		t.Errorf("noisy regression: %s, want %s", got, verdictUnresolved)
	}
	// Ten pairs, all won, medians further apart than the base's quartiles.
	if r := compareRuns(d, noisyOld, steadyNew, false)[0]; r.Verdict != verdictGain || r.Wins != 10 || r.Pairs != 10 {
		t.Errorf("paired gain: %+v", r)
	}
	// The self-check counts a difference in either direction.
	for _, r := range compareRuns(d, []ledger{bad}, []ledger{base}, true) {
		if want := 1/(1-rate-0.1) - 1; r.Metric == "msgs_per_s" && math.Abs(r.Worse-want) > 1e-9 {
			t.Errorf("symmetric msgs_per_s worse = %v, want %v", r.Worse, want)
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"--trace", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"--workload", "storm8", "--trace", "0"}, []string{"--workload", "storm8", "--trace", "0"}},
		{[]string{"--trace", "1"}, []string{"--trace", "1"}},
	} {
		if got := normalizeTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestReferenceCoversEveryWorkload(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for name := range ref.Workloads {
		got = append(got, name)
	}
	for i := range workloads {
		if workloads[i].sameAs == "" {
			want = append(want, workloads[i].name)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if ref.Seed != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("reference.json seed %d pins %v, want seed 1 and %v", ref.Seed, got, want)
	}
}
