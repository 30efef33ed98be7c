// Command unetbench regenerates the paper's evaluation (Tables 1-3,
// Figures 3-9) and the repo's own experiments as text: it parses its flags
// into experiments.Options and runs the rows of experiments.All that
// -experiment names. `unetbench -h` lists the ids and every flag.
//
// Usage:
//
//	unetbench                      # the whole evaluation at quick scale
//	unetbench -experiment table3,fig8
//	unetbench -paper               # paper-scale Split-C problem sizes
//	unetbench -rounds 100          # more ping-pong rounds per point
//	unetbench -shards 2            # two shard engines per simulation: same
//	                               # output; wall-clock may go either way
//	unetbench -experiment chaos -loss 0.01 -faultseed 7
//	unetbench -experiment storm -shards 4 -simprof   # window profiler dump
//	unetbench -experiment serve -serveclients 64 -servelogical 16384 -servebursty
//	unetbench -experiment clos -topo clos3 -racks 4 -perrack 2 -spine 2 -count 4
//	                               # all-to-all storm over a 3-stage Clos
//	unetbench -experiment gossip -islands 8192
//	unetbench -experiment point -proto tcp -path kernel-atm -bw -window 8192
//	                               # one measurement of one protocol stack
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"unet/internal/experiments"
)

func main() { os.Exit(run(experiments.All, os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs named: it parses args into
// Options, checks every flag and experiment id before anything runs, writes
// the named rows of table to stdout and returns the exit status (2 for a
// usage error, with one line on stderr).
func run(table []experiments.Experiment, args []string, stdout, stderr io.Writer) int {
	var ids, all []string
	for _, e := range table {
		ids = append(ids, e.ID)
		if !e.OnDemand {
			all = append(all, e.ID)
		}
	}
	fs := flag.NewFlagSet("unetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: unetbench [flags]\nexperiments: %s\n", strings.Join(ids, " "))
		fs.PrintDefaults()
	}
	o := experiments.DefaultOptions()
	expFlag := fs.String("experiment", "all", "comma-separated experiment ids; all is "+strings.Join(all, ","))
	fs.IntVar(&experiments.MaxParallel, "parallel", 0, "sweep-point workers (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
	shards := fs.Int("shards", 0, "shard engines per simulation (0 = serial; output is identical either way)")
	fs.BoolVar(&o.Paper, "paper", o.Paper, "use the paper's full Split-C problem sizes (slower)")
	fs.IntVar(&o.Rounds, "rounds", o.Rounds, "ping-pong rounds per latency point")
	fs.IntVar(&o.Count, "count", o.Count, "messages per bandwidth point (fig8: a megabyte of stream per 200)")
	fs.IntVar(&o.Hosts, "hosts", o.Hosts, "storm: cluster size")
	fs.BoolVar(&o.SimProf, "simprof", o.SimProf, "storm, clos: dump the per-shard window-protocol profile (wall-clock diagnostics)")

	fs.StringVar(&o.Topo, "topo", o.Topo, "clos: topology shape (clos2, clos3, ring, island)")
	fs.IntVar(&o.Racks, "racks", o.Racks, "clos: top-of-rack switches (pods×2 for clos3; islands for ring/island)")
	fs.IntVar(&o.PerRack, "perrack", o.PerRack, "clos: hosts per rack")
	fs.IntVar(&o.Spine, "spine", o.Spine, "clos: spine (clos2) or core (clos3) switches")
	fs.IntVar(&o.Islands, "islands", o.Islands, "gossip: island switches (one host each)")

	fs.IntVar(&o.Serve.ClientHosts, "serveclients", 0, "serve: load-generating hosts (0 = default 6)")
	fs.IntVar(&o.Serve.Servers, "serveservers", 0, "serve: serving hosts (0 = default 2)")
	fs.IntVar(&o.Serve.LogicalPerHost, "servelogical", 0, "serve: logical clients multiplexed per client host (0 = default 4096)")
	fs.DurationVar(&o.Serve.Duration, "serveduration", 0, "serve: arrival window of virtual time (0 = default 20ms)")
	fs.BoolVar(&o.Serve.Bursty, "servebursty", false, "serve: batched (bursty) arrivals instead of Poisson")
	loads := fs.String("serveloads", "", fmt.Sprintf("serve: comma-separated offered loads in req/s (default %v)", o.Loads))

	fs.Int64Var(&o.FaultSeed, "faultseed", o.FaultSeed, "seed for the deterministic fault injectors (figloss, chaos)")
	fs.Float64Var(&o.Loss, "loss", o.Loss, "chaos: override the i.i.d. cell-loss rate (per-cell probability)")
	fs.Float64Var(&o.Burst, "burst", o.Burst, "chaos: override the Gilbert-Elliott good→bad rate (0 disables burst loss)")
	fs.DurationVar(&o.Flap, "flap", o.Flap, "chaos: override the link flap period (down for period/10; 0 disables flaps)")

	fs.StringVar(&o.Proto, "proto", o.Proto, "point: one of "+experiments.Protos)
	fs.StringVar(&o.Path, "path", o.Path, "point: udp/tcp packet path, one of "+experiments.Paths)
	fs.IntVar(&o.Size, "size", o.Size, "point: message size in bytes")
	fs.BoolVar(&o.BW, "bw", o.BW, "point: measure streaming bandwidth instead of round-trip latency")
	fs.IntVar(&o.Window, "window", o.Window, "point: TCP window in bytes")
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
	if *shards < 0 {
		return usage("-shards %d: need 0 (serial) or more", *shards)
	}
	experiments.Shards = *shards
	if err := o.Check(); err != nil {
		return usage("%v", err)
	}
	if *loads != "" {
		o.Loads = nil
		for _, s := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				return usage("bad -serveloads entry %q", s)
			}
			o.Loads = append(o.Loads, v)
		}
	}
	if *expFlag != "all" {
		all = strings.Split(*expFlag, ",")
	}
	var rows []experiments.Experiment
	for _, id := range all {
		id = strings.TrimSpace(strings.ToLower(id))
		i := slices.Index(ids, id)
		if i < 0 {
			return usage("unknown experiment %q (have %s)", id, strings.Join(ids, " "))
		}
		rows = append(rows, table[i])
	}
	for _, e := range rows {
		t0 := time.Now()
		report, diag := e.Run(o)
		fmt.Fprint(stdout, report, diag)
		fmt.Fprintf(stdout, "(%s regenerated in %v wall time)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}
