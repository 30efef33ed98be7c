// Command unetbench regenerates every table and figure from the paper's
// evaluation (Tables 1-3, Figures 3-9) as text tables.
//
// Usage:
//
//	unetbench                      # run everything at quick scale
//	unetbench -experiment fig4     # one experiment
//	unetbench -experiment table3,fig8
//	unetbench -paper               # paper-scale Split-C problem sizes
//	unetbench -rounds 100          # more ping-pong rounds per point
//	unetbench -shards -1           # shard each simulation across all cores
//	unetbench -experiment figloss  # goodput/RTT-vs-loss sweep
//	unetbench -experiment chaos -loss 0.01 -faultseed 7
//	unetbench -experiment storm -shards 4 -simprof   # window profiler dump
//	unetbench -experiment serve                      # open-loop serving sweep
//	unetbench -experiment serve -serveclients 64 -servelogical 16384 -servebursty
//	unetbench -experiment clos -topo clos2 -racks 8 -perrack 8 -spine 2 -count 4
//	                                   # all-to-all storm over a 64-host
//	                                   # 2-stage Clos (multi-hop VCI routes)
//	unetbench -experiment clos -topo clos3 -racks 4 -perrack 2 -spine 2 -count 4
//	unetbench -experiment gossip -islands 1024 -shards 8
//	                                   # 1k-island gossip overlay with flapping
//	                                   # uplinks and failure detection
//
// Experiments: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9
// figloss chaos ablations storm serve clos gossip
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"unet/internal/experiments"
	"unet/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs named: it parses args, checks
// every flag and experiment id before anything runs, writes the reports to
// stdout and returns the exit status (2 for a usage error, with one line on
// stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("experiment", "all", "comma-separated experiment ids (table1..3, fig3..9, all)")
		paper    = fs.Bool("paper", false, "use the paper's full Split-C problem sizes (slower)")
		rounds   = fs.Int("rounds", 40, "ping-pong rounds per latency point")
		count    = fs.Int("count", 200, "messages per bandwidth point")
		parallel = fs.Int("parallel", 0, "sweep-point workers (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		shards   = fs.Int("shards", 0, "shard engines per simulation (0 = serial, <0 = GOMAXPROCS; output is identical either way)")
		hosts    = fs.Int("hosts", 8, "storm: cluster size")
		simprof  = fs.Bool("simprof", false, "storm: dump the per-shard window-protocol profile (wall-clock diagnostics)")

		topoKind = fs.String("topo", "clos2", "clos: topology shape (clos2, clos3, ring, island)")
		racks    = fs.Int("racks", 8, "clos: top-of-rack switches (pods×2 for clos3; islands for ring/island)")
		perRack  = fs.Int("perrack", 8, "clos: hosts per rack")
		spine    = fs.Int("spine", 2, "clos: spine (clos2) or core (clos3) switches")
		islands  = fs.Int("islands", 1024, "gossip: island switches (one host each)")

		serveClients  = fs.Int("serveclients", 0, "serve: load-generating hosts (0 = default 6)")
		serveServers  = fs.Int("serveservers", 0, "serve: serving hosts (0 = default 2)")
		serveLogical  = fs.Int("servelogical", 0, "serve: logical clients multiplexed per client host (0 = default 4096)")
		serveDuration = fs.Duration("serveduration", 0, "serve: arrival window of virtual time (0 = default 20ms)")
		serveLoads    = fs.String("serveloads", "20000,40000,60000,80000,100000,140000", "serve: comma-separated offered loads (req/s)")
		serveBursty   = fs.Bool("servebursty", false, "serve: batched (bursty) arrivals instead of Poisson")

		faultSeed = fs.Int64("faultseed", experiments.FaultSeed, "seed for the deterministic fault injectors (figloss, chaos)")
		loss      = fs.Float64("loss", -1, "chaos: override the i.i.d. cell-loss rate (per-cell probability)")
		burst     = fs.Float64("burst", -1, "chaos: override the Gilbert-Elliott good→bad rate (0 disables burst loss)")
		flap      = fs.Duration("flap", -1, "chaos: override the link flap period (down for period/10; 0 disables flaps)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has already said why
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "unetbench: "+format+"\n", a...)
		return 2
	}
	spec, err := topo.Generate(*topoKind, *racks, *perRack, *spine)
	if err != nil {
		return usage("-topo/-racks/-perrack/-spine: %v", err)
	}
	if *islands < 1 {
		return usage("-islands %d: need at least one island", *islands)
	}
	var loads []float64
	for _, s := range strings.Split(*serveLoads, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil || v <= 0 {
			return usage("bad -serveloads entry %q", s)
		}
		loads = append(loads, v)
	}
	experiments.MaxParallel = *parallel
	experiments.Shards = *shards
	nshards := *shards
	if nshards < 0 {
		nshards = runtime.GOMAXPROCS(0)
	}

	sc := experiments.QuickScale()
	if *paper {
		sc = experiments.PaperScale()
	}

	run := map[string]func(){
		"table1":    func() { fmt.Fprintln(stdout, experiments.Table1()) },
		"table2":    func() { fmt.Fprintln(stdout, experiments.Table2(*rounds)) },
		"table3":    func() { fmt.Fprintln(stdout, experiments.Table3(*rounds, *count)) },
		"fig3":      func() { fmt.Fprintln(stdout, experiments.Fig3(*rounds)) },
		"fig4":      func() { fmt.Fprintln(stdout, experiments.Fig4(*count)) },
		"fig5":      func() { fmt.Fprintln(stdout, experiments.Fig5(sc)) },
		"fig6":      func() { fmt.Fprintln(stdout, experiments.Fig6(*rounds/2)) },
		"fig7":      func() { fmt.Fprintln(stdout, experiments.Fig7(*count)) },
		"fig8":      func() { fmt.Fprintln(stdout, experiments.Fig8(1<<20)) },
		"fig9":      func() { fmt.Fprintln(stdout, experiments.Fig9(*rounds/2)) },
		"ablations": func() { fmt.Fprintln(stdout, experiments.AblationTable(*rounds/2)) },
		"figloss":   func() { fmt.Fprintln(stdout, experiments.TableLoss(*faultSeed, *rounds/2, *count/4)) },
		"chaos": func() {
			cfg := experiments.DefaultChaos(*faultSeed)
			if *loss >= 0 {
				cfg.Plan.LossRate = *loss
			}
			if *burst >= 0 {
				cfg.Plan.BurstPGB = *burst
			}
			if *flap >= 0 {
				cfg.Plan.FlapPeriod = *flap
				cfg.Plan.FlapDown = *flap / 10
			}
			fmt.Fprintln(stdout, experiments.Chaos(cfg))
		},
		"storm": func() {
			t0 := time.Now()
			report, prof := experiments.Storm(*hosts, nshards, *count)
			wall := time.Since(t0)
			fmt.Fprint(stdout, report)
			if *simprof {
				if len(prof.Shards) == 0 {
					fmt.Fprintln(stdout, "simprof: serial run — no shard group; rerun with -shards ≥ 2")
					return
				}
				fmt.Fprintf(stdout, "simprof (GOMAXPROCS=%d NumCPU=%d, wall %v):\n%s",
					runtime.GOMAXPROCS(0), runtime.NumCPU(), wall.Round(time.Microsecond), prof)
				// Sync-wait share: fraction of the shards' aggregate
				// wall-clock budget spent waiting on a neighbor's clock
				// rather than simulating.
				total := prof.Total()
				share := 100 * float64(total.BarrierWait) / (float64(wall) * float64(len(prof.Shards)))
				fmt.Fprintf(stdout, "sync-wait share: %.1f%% of %d shards × %v wall\n",
					share, len(prof.Shards), wall.Round(time.Microsecond))
			}
		},
		"clos": func() {
			// The storm is all-to-all: scale the per-host count down from the
			// pair-experiment default so the quick run stays quick.
			msgs := *count
			if msgs > 8 {
				msgs = 8
			}
			t0 := time.Now()
			report, prof := experiments.TopoStorm(spec, nshards, msgs)
			wall := time.Since(t0)
			fmt.Fprint(stdout, report)
			if *simprof && len(prof.Shards) > 0 {
				fmt.Fprintf(stdout, "simprof (wall %v):\n%s", wall.Round(time.Microsecond), prof)
			}
		},
		"gossip": func() {
			cfg := experiments.DefaultGossip(*islands)
			cfg.Shards = nshards
			t0 := time.Now()
			res := experiments.Gossip(cfg)
			wall := time.Since(t0)
			fmt.Fprint(stdout, res.Render())
			fmt.Fprintf(stdout, "  [diag] events=%d wall=%v events/sec=%.0f\n",
				res.Delivered, wall.Round(time.Microsecond), float64(res.Delivered)/wall.Seconds())
		},
		"serve": func() {
			base := experiments.ServeConfig{
				ClientHosts:    *serveClients,
				Servers:        *serveServers,
				LogicalPerHost: *serveLogical,
				Duration:       *serveDuration,
				Bursty:         *serveBursty,
				Shards:         nshards,
			}
			report, results := experiments.ServeSweep(base, loads)
			fmt.Fprint(stdout, report)
			// Wall-clock diagnostics (not part of the deterministic report).
			for _, r := range results {
				fmt.Fprintf(stdout, "  [diag] load=%.0f/s events=%d wall=%v events/sec=%.0f\n",
					r.Cfg.Rate, r.Steps, r.Wall.Round(time.Microsecond),
					float64(r.Steps)/r.Wall.Seconds())
			}
		},
	}
	order := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablations", "figloss", "chaos", "storm", "serve", "clos", "gossip"}

	ids := order
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(strings.ToLower(id))
			if run[ids[i]] == nil {
				return usage("unknown experiment %q (have %s)", ids[i], strings.Join(order, " "))
			}
		}
	}
	for _, id := range ids {
		t0 := time.Now()
		run[id]()
		fmt.Fprintf(stdout, "(%s regenerated in %v wall time)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}
