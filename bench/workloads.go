package main

import (
	"fmt"
	"math"
	"time"

	"unet/internal/atm"
	"unet/internal/experiments"
	"unet/internal/stats"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

// result is one repetition of a workload: host times, message accounting,
// the simulated statistics the benchmark pins, and (traced runs) the layer
// counters read through the layers' public accessors.
type result struct {
	Total time.Duration // host time of the whole repetition, construction included
	Setup time.Duration // host time of construction; -1 when the call hides it (probe instead)

	Attempted uint64 // application messages the workload tried to complete
	Completed uint64
	SimEnd    time.Duration // virtual completion time; 0 when the workload has none

	AllocBytes    uint64  // TotalAlloc delta over setup + run
	RunAllocBytes uint64  // TotalAlloc delta over the run alone; 0 when setup is hidden
	PeakRSSMB     float64 // VmHWM after the repetition (filled by repeat)

	Pinned     map[string]string  // simulated statistics, formatted here, compared with reference.json
	Extra      map[string]value   // exact single-workload ledger metrics (sim_p50_us, paper_err_pct, ...)
	Counters   map[string]float64 // per-layer counters (traced runs read them; cheap, so always filled)
	Violations []string           // invariant violations; any entry makes the run incorrect
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs; BENCHMARK.json and README.md say why
// each exists. run performs one repetition at the full size (small=false) or
// at roughly 1/100 size for bench_test.go. probe builds the same cluster and
// tears it down again, returning construction time only; it supplies the
// extra setup_s samples.
type workload struct {
	name string
	// runIncludesSetup marks the workload whose users pay construction on
	// every point (fig4_sweep): its msgs_per_s divides by Total, not by
	// Total-Setup.
	runIncludesSetup bool
	// seeded reports whether --seed changes the simulated statistics; the
	// reference pins the others at every seed.
	seeded bool
	// sameAs names the workload whose pinned statistics this one must
	// reproduce exactly (storm8_shard2 reads storm8's reference entry).
	sameAs string
	run    func(seed int64, small bool, tr *tracer) result
	probe  func(seed int64, small bool) time.Duration
	// explain rebuilds a full-size run's host nanoseconds as a sum of ladder
	// rungs times counts (ROADMAP 1b), for ladder.explained_ratio. Where every
	// layer's counters are readable (the storms) the sum is per event, per
	// cell and per message; where an experiments call hides them it uses the
	// rungs that are the workload's own operations.
	explain func(r result, rung map[string]float64) float64
}

var (
	storm8Spec = stormSpec{hosts: 8, count: 15000, smallCount: 150}
	shard2Spec = stormSpec{hosts: 8, shards: 2, count: 15000, smallCount: 150}
	clos64Spec = stormSpec{clos: true, count: 500, smallCount: 5}
)

var workloads = []workload{
	{
		name:             "fig4_sweep",
		runIncludesSetup: true,
		run:              runFig4,
		probe:            probeFig4,
		explain:          explainFig4,
	},
	{
		name:   "serve_knee",
		seeded: true,
		run:    runServe,
		probe:  probeServe,
		explain: func(r result, rung map[string]float64) float64 {
			return float64(r.Completed) * rung["uam.rtt_ns"]
		},
	},
	{name: "storm8", run: storm8Spec.run, probe: storm8Spec.probe, explain: stormExplain("fabric.switch_cell_ns")},
	{name: "storm8_shard2", sameAs: "storm8", run: shard2Spec.run, probe: shard2Spec.probe, explain: stormExplain("fabric.switch_cell_ns")},
	{name: "clos64", run: clos64Spec.run, probe: clos64Spec.probe, explain: stormExplain("topo.hop3_cell_ns")},
	{
		name:  "gossip1k",
		run:   runGossip,
		probe: probeGossip,
		explain: func(r result, rung map[string]float64) float64 {
			g := gossipConfig(0, false)
			return float64(r.Completed)*rung["unet.echo_1cell_ns"]/2 + float64(g.Islands*g.Rounds)*rung["sim.sleep_resume_ns"]
		},
	},
}

func (w *workload) pinnedAs() string {
	if w.sameAs != "" {
		return w.sameAs
	}
	return w.name
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- storm8, storm8_shard2, clos64: the testbed is built here, so setup
// and run are timed directly and every layer's counters are readable. ---

type stormSpec struct {
	hosts, shards     int
	clos              bool
	count, smallCount int
}

const stormMsgSize = 1024

func (s stormSpec) config(seed int64) testbed.Config {
	cfg := testbed.Config{Hosts: s.hosts, Shards: s.shards, Seed: seed}
	if s.clos {
		cfg.Topology = topo.Clos2(8, 8, 2)
	}
	return cfg
}

func (s stormSpec) build(seed int64, tr *tracer) (*testbed.Testbed, *testbed.Mesh) {
	end := tr.span("testbed.new")
	tb := testbed.New(s.config(seed))
	end()
	end = tr.span("testbed.mesh")
	mesh, err := tb.NewMesh(unet.EndpointConfig{SegmentSize: 1 << 20}, 64)
	end()
	if err != nil {
		panic(err)
	}
	return tb, mesh
}

func (s stormSpec) probe(seed int64, _ bool) time.Duration {
	t0 := time.Now()
	tb, _ := s.build(seed, nil)
	d := time.Since(t0)
	tb.Close()
	return d
}

func (s stormSpec) run(seed int64, small bool, tr *tracer) result {
	count := s.count
	if small {
		count = s.smallCount
	}
	a0 := totalAlloc()
	t0 := time.Now()
	tb, mesh := s.build(seed, tr)
	r := result{Setup: time.Since(t0)}
	a1 := totalAlloc()

	end := tr.span("experiments.run")
	per, simEnd := mesh.Storm(count, stormMsgSize)
	end()
	r.Total = time.Since(t0)
	a2 := totalAlloc()
	r.AllocBytes, r.RunAllocBytes = a2-a0, a2-a1
	r.SimEnd = simEnd

	n := len(per)
	expect := make([]int, n)
	for i := 0; i < n; i++ {
		for k := 0; k < count; k++ {
			expect[(i+1+k%(n-1))%n]++
		}
	}
	r.Pinned = map[string]string{"end": simEnd.String()}
	for i, h := range per {
		r.Attempted += uint64(expect[i])
		r.Completed += uint64(h.Received)
		if h.Sent != count || h.Received != expect[i] {
			r.violate("host %d sent %d/%d received %d/%d", i, h.Sent, count, h.Received, expect[i])
		}
		r.Pinned[fmt.Sprintf("host%02d", i)] = fmt.Sprintf("sent=%d recv=%d last=%v", h.Sent, h.Received, h.LastRecv)
	}
	r.Counters = stormCounters(tb, mesh, &r)

	end = tr.span("testbed.close")
	tb.Close()
	end()
	return r
}

// stormExplain charges every event the engine rung, every delivered cell
// its segmentation, reassembly and trip through the fabric, and every message
// a process switch.
func stormExplain(fabricRung string) func(result, map[string]float64) float64 {
	return func(r result, rung map[string]float64) float64 {
		perCell := rung["atm.segment_ns_per_cell"] + rung["atm.reassemble_ns_per_cell"] + rung[fabricRung]
		return r.Counters["sim.events"]*rung["sim.event_ns"] + r.Counters["nic.cells_in"]*perCell + float64(r.Completed)*rung["sim.proc_switch_ns"]
	}
}

// stormCounters reads every layer's public counters after the run and
// records the loss and leak invariants the storm workloads must hold.
func stormCounters(tb *testbed.Testbed, mesh *testbed.Mesh, r *result) map[string]float64 {
	c := map[string]float64{"sim.events": float64(tb.TotalSteps())}
	var cells, lost, cellsIn, pdusIn, bells, coalesced, bad, fifo, recvDrops uint64
	live := 0
	for i := range tb.Hosts {
		up, down := tb.Net.Uplink(i).Stats(), tb.Net.Downlink(i).Stats()
		cells += up.CellsSent + down.CellsSent
		lost += up.CellsLost + down.CellsLost
		d := tb.Devices[i].Stats()
		cellsIn += d.CellsIn
		pdusIn += d.PDUsIn
		bells += d.Doorbells
		coalesced += d.DoorbellsCoalesced
		bad += d.BadPDUs
		fifo += d.InFIFODrops
		live += tb.Devices[i].ArenaStats().Live() + tb.Devices[i].OffsetsStats().Live()
		e := mesh.Eps[i].Stats()
		recvDrops += e.DroppedNoBuffer + e.DroppedQueueFull + e.DroppedReassembly
	}
	var qdrops, undelivered uint64
	if tb.Topo != nil {
		for t := 0; t < tb.Topo.TrunkCount(); t++ {
			s := tb.Topo.TrunkLink(t).Stats()
			cells += s.CellsSent
			lost += s.CellsLost
		}
		qdrops, undelivered = tb.Topo.TotalQueueDrops(), tb.Topo.UndeliveredCells()
	} else {
		qdrops, undelivered = tb.Fabric.Switch.TotalQueueDrops(), tb.Fabric.UndeliveredCells()
	}
	c["fabric.cells"] = float64(cells)
	c["fabric.cells_lost"] = float64(lost)
	c["fabric.queue_drops"] = float64(qdrops)
	c["nic.cells_in"] = float64(cellsIn)
	c["nic.pdus_in"] = float64(pdusIn)
	c["nic.doorbells"] = float64(bells)
	if bells > 0 {
		c["nic.doorbell_coalesced_ratio"] = float64(coalesced) / float64(bells)
	}
	c["nic.bad_pdus"] = float64(bad)
	c["nic.fifo_drops"] = float64(fifo)
	c["unet.recv_drops"] = float64(recvDrops)
	c["unet.pool_live"] = float64(live)
	if g := tb.Eng.Group(); g != nil {
		p := g.Profile()
		t := p.Total()
		c["sim.shard_windows"] = float64(t.Windows)
		c["sim.shard_stalls"] = float64(t.Stalls)
		c["sim.shard_sync_wait_ns"] = float64(t.BarrierWait) / float64(len(p.Shards))
	}
	if lost+qdrops+undelivered+bad+fifo+recvDrops != 0 {
		r.violate("loss on a loss-free workload: cells_lost=%d qdrops=%d undelivered=%d bad_pdus=%d fifo_drops=%d recv_drops=%d",
			lost, qdrops, undelivered, bad, fifo, recvDrops)
	}
	if live != 0 {
		r.violate("unet.pool_live=%d at quiescence", live)
	}
	return c
}

// --- serve_knee, gossip1k, fig4_sweep: one experiments call builds, runs
// and closes the cluster, so setup comes from the call's own wall-clock
// split (serve) or from a no-work probe of the same call. ---

func serveConfig(seed int64, small bool) experiments.ServeConfig {
	cfg := experiments.ServeConfig{Rate: 80_000, Duration: time.Second, Seed: seed}
	if small {
		cfg.Duration = 10 * time.Millisecond
	}
	return cfg
}

func runServe(seed int64, small bool, tr *tracer) result {
	a0 := totalAlloc()
	t0 := time.Now()
	end := tr.span("experiments.run")
	s := experiments.Serve(serveConfig(seed, small))
	end()
	r := result{Total: time.Since(t0)}
	r.Setup = r.Total - s.Wall
	r.AllocBytes = totalAlloc() - a0
	r.Attempted, r.Completed, r.SimEnd = uint64(s.Sent), uint64(s.Replied), s.End
	if s.Replied != s.Sent || s.Dropped != 0 {
		r.violate("serve sent=%d replied=%d dropped=%d", s.Sent, s.Replied, s.Dropped)
	}
	if s.Latency.Count() != uint64(s.Replied) {
		r.violate("serve recorded %d latencies for %d replies", s.Latency.Count(), s.Replied)
	}
	p50, p999 := s.Latency.Quantile(0.50), s.Latency.Quantile(0.999)
	r.Extra = map[string]value{
		"sim_p50_us":  {Value: float64(p50) / 1e3, Unit: "us"},
		"sim_p999_us": {Value: float64(p999) / 1e3, Unit: "us"},
		"sim_samples": {Value: float64(s.Latency.Count()), Unit: "count"},
	}
	r.Pinned = map[string]string{
		"sent": fmt.Sprint(s.Sent), "replied": fmt.Sprint(s.Replied), "dropped": fmt.Sprint(s.Dropped),
		"active": fmt.Sprint(s.Active), "end": s.End.String(),
		"p50_ns": fmt.Sprint(p50), "p99_ns": fmt.Sprint(s.Latency.Quantile(0.99)), "p999_ns": fmt.Sprint(p999),
		"max_ns": fmt.Sprint(s.Latency.Max()),
	}
	r.Counters = map[string]float64{"sim.events": float64(s.Steps)}
	return r
}

func probeServe(seed int64, small bool) time.Duration {
	cfg := serveConfig(seed, small)
	cfg.Duration = time.Nanosecond // no arrival fits: construction and teardown only
	t0 := time.Now()
	s := experiments.Serve(cfg)
	return time.Since(t0) - s.Wall
}

func gossipConfig(seed int64, small bool) experiments.GossipConfig {
	n := 1024
	if small {
		n = 32
	}
	cfg := experiments.DefaultGossip(n)
	cfg.Rounds, cfg.Seed = 24, seed
	return cfg
}

func runGossip(seed int64, small bool, tr *tracer) result {
	a0 := totalAlloc()
	t0 := time.Now()
	end := tr.span("experiments.run")
	g := experiments.Gossip(gossipConfig(seed, small))
	end()
	r := result{Total: time.Since(t0), Setup: -1}
	r.AllocBytes = totalAlloc() - a0
	// Cells sent into a flapped (down) uplink are the workload's injected
	// fault, pinned below; an operation fails only when a switch queue
	// overflows, which the calibrated QueueCells bound must never allow.
	r.Attempted, r.Completed, r.SimEnd = g.Sent, g.Sent-g.SwDrops, g.End
	if g.Delivered > g.Sent || g.Coverage < 1 || g.Coverage > g.Hosts {
		r.violate("gossip sent=%d delivered=%d coverage=%d/%d", g.Sent, g.Delivered, g.Coverage, g.Hosts)
	}
	r.Extra = map[string]value{"injected_loss_ratio": {Value: float64(g.Sent-g.Delivered) / float64(g.Sent), Unit: "ratio"}}
	r.Pinned = map[string]string{
		"sent": fmt.Sprint(g.Sent), "delivered": fmt.Sprint(g.Delivered), "learned": fmt.Sprint(g.Learned),
		"removed": fmt.Sprint(g.Removed), "coverage": fmt.Sprint(g.Coverage),
		"fqdrops": fmt.Sprint(g.FQDrops), "swdrops": fmt.Sprint(g.SwDrops), "end": g.End.String(),
	}
	r.Counters = map[string]float64{"fabric.queue_drops": float64(g.SwDrops)}
	return r
}

func probeGossip(seed int64, small bool) time.Duration {
	cfg := gossipConfig(seed, small)
	cfg.Rounds = 0
	t0 := time.Now()
	experiments.Gossip(cfg)
	return time.Since(t0)
}

const (
	fig4Sweeps = 3
	fig4Count  = 200 // messages per size and series (half as many gets)
)

// Paper reference values for paper_err_pct (Table 3 and Fig. 4).
const (
	paperUAMStore4K = 14.8        // MB/s, UAM store at 4 KB
	paperRaw4K      = 120.0 / 8.0 // MB/s, raw U-Net at 4 KB: 120 Mbit/s
)

func runFig4(_ int64, small bool, tr *tracer) result {
	count, sweeps := fig4Count, fig4Sweeps
	if small {
		count, sweeps = 4, 1
	}
	prev := experiments.MaxParallel
	experiments.MaxParallel = 1
	defer func() { experiments.MaxParallel = prev }()

	a0 := totalAlloc()
	t0 := time.Now()
	end := tr.span("experiments.run")
	var fig *stats.Figure
	for i := 0; i < sweeps; i++ {
		fig = experiments.Fig4(count)
	}
	end()
	r := result{Total: time.Since(t0), Setup: -1}
	r.AllocBytes = totalAlloc() - a0

	// Per size: count raw messages, count stores, count/2 gets. The drivers
	// panic on a send error and block until every block is delivered, so a
	// returned figure means every message completed.
	per := uint64(len(experiments.Fig4Sizes)) * uint64(count+count+count/2)
	r.Attempted = per * uint64(sweeps)
	r.Completed = r.Attempted
	r.Pinned = map[string]string{}
	series := map[string]*stats.Series{}
	for _, s := range fig.Series {
		series[s.Name] = s
		for _, p := range s.Points {
			if p.Y <= 0 || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				r.violate("fig4 %s @%v = %v MB/s", s.Name, p.X, p.Y)
			}
			r.Pinned[fmt.Sprintf("%s@%04.0f", s.Name, p.X)] = fmt.Sprintf("%.6f", p.Y)
		}
	}
	if len(series) != 4 {
		r.violate("fig4 returned %d series", len(series))
		return r
	}
	at := func(name string, x float64) float64 { y, _ := series[name].At(x); return y }
	rel := func(got, want float64) float64 { return 100 * math.Abs(got-want) / want }
	r.Extra = map[string]value{"paper_err_pct": {Unit: "%", Value: math.Max(
		rel(at("UAM store", 4096), paperUAMStore4K),
		math.Max(rel(at("Raw U-Net", 4096), paperRaw4K), rel(at("Raw U-Net", 800), at("AAL-5 limit", 800))))}}
	return r
}

// explainFig4 charges, per message size, the raw stream and the UAM blocks
// at their 1 KB and 4 KB rungs scaled by cell count, plus the two endpoints
// and four UAM instances the three two-host clusters of a point construct.
func explainFig4(_ result, rung map[string]float64) float64 {
	ns := 0.0
	for _, size := range experiments.Fig4Sizes {
		cells := float64(atm.CellsFor(size))
		ns += fig4Count * rung["nic.stream_1k_ns_per_msg"] * cells / float64(atm.CellsFor(1024))
		ns += (fig4Count + fig4Count/2) * rung["uam.store_4k_ns"] * cells / float64(atm.CellsFor(4096))
		ns += 1e3 * (2*rung["unet.endpoint_create_us"] + 4*rung["uam.new_us"])
	}
	return ns * fig4Sweeps
}

func probeFig4(_ int64, _ bool) time.Duration {
	prev := experiments.MaxParallel
	experiments.MaxParallel = 1
	defer func() { experiments.MaxParallel = prev }()
	t0 := time.Now()
	experiments.Fig4(2) // 54 clusters built and closed, one timed message each
	return time.Since(t0)
}
