package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"unet/internal/atm"
	"unet/internal/ip"
	"unet/internal/ip/udp"
	"unet/internal/kernelpath"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/stats"
	"unet/internal/topo"
	"unet/internal/uam"
)

// Experiment is one row of the evaluation. Run renders the row: report is
// deterministic — the same Options give the same bytes, at any MaxParallel
// — and diag carries the wall-clock lines (events/sec, -simprof) that no
// golden compares. Run panics on Options that fail Check.
type Experiment struct {
	ID string
	// Sharded promises that report is the same at every setting of Shards
	// but for the `shards=N` label in its header; the golden sweep holds
	// the row to it. Rows without it run on one engine whatever Shards
	// says.
	Sharded bool
	// OnDemand keeps a row out of `all`, which is the paper's evaluation.
	OnDemand bool
	Run      func(Options) (report, diag string)
}

// All is the evaluation in printing order: the one list that cmd/unetbench,
// the golden tests and BenchmarkExperiments iterate.
var All = []Experiment{
	{ID: "table1", Sharded: true, Run: rendered(func(Options) fmt.Stringer { return Table1() })},
	{ID: "table2", Run: rendered(func(o Options) fmt.Stringer { return Table2(o.Rounds) })},
	{ID: "table3", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return Table3(o.Rounds, o.Count) })},
	{ID: "fig3", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return Fig3(o.Rounds) })},
	{ID: "fig4", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return Fig4(o.Count) })},
	{ID: "fig5", Run: rendered(func(o Options) fmt.Stringer {
		if o.Paper {
			return Fig5(PaperScale())
		}
		return Fig5(QuickScale())
	})},
	{ID: "fig6", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return Fig6(o.Rounds / 2) })},
	{ID: "fig7", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return Fig7(o.Count) })},
	// A megabyte of U-Net TCP per write size at the default Count; the
	// stream scales with Count like the other bandwidth figures' do.
	{ID: "fig8", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return Fig8(o.Count << 20 / DefaultOptions().Count) })},
	{ID: "fig9", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return Fig9(o.Rounds / 2) })},
	{ID: "ablations", Sharded: true, Run: rendered(func(o Options) fmt.Stringer { return AblationTable(o.Rounds / 2) })},
	{ID: "figloss", Sharded: true, Run: rendered(func(o Options) fmt.Stringer {
		return TableLoss(o.FaultSeed, o.Rounds/2, o.Count/4)
	})},
	{ID: "chaos", Sharded: true, Run: rendered(func(o Options) fmt.Stringer {
		cfg := DefaultChaos(o.FaultSeed)
		if o.Loss >= 0 {
			cfg.Plan.LossRate = o.Loss
		}
		if o.Burst >= 0 {
			cfg.Plan.BurstPGB = o.Burst
		}
		if o.Flap >= 0 {
			cfg.Plan.FlapPeriod = o.Flap
			cfg.Plan.FlapDown = o.Flap / 10
		}
		return Chaos(cfg)
	})},
	{ID: "storm", Sharded: true, Run: func(o Options) (string, string) {
		return profiled(o, func() (string, sim.GroupProfile) { return Storm(o.Hosts, shardCount(), o.Count) })
	}},
	{ID: "serve", Sharded: true, Run: func(o Options) (string, string) {
		base := o.Serve
		base.Shards = shardCount()
		report, results := ServeSweep(base, o.Loads)
		var diag strings.Builder
		for _, r := range results {
			fmt.Fprintf(&diag, "  [diag] load=%.0f/s events=%d wall=%v events/sec=%.0f\n",
				r.Cfg.Rate, r.Steps, r.Wall.Round(time.Microsecond), float64(r.Steps)/r.Wall.Seconds())
		}
		return report, diag.String()
	}},
	{ID: "clos", Sharded: true, Run: func(o Options) (string, string) {
		spec, err := topo.Generate(o.Topo, o.Racks, o.PerRack, o.Spine)
		mustNoErr(err, "clos topology")
		// The storm is all-to-all: the pair experiments' per-host count is
		// capped so the quick run stays quick.
		return profiled(o, func() (string, sim.GroupProfile) { return TopoStorm(spec, shardCount(), min(o.Count, 8)) })
	}},
	{ID: "gossip", Sharded: true, Run: func(o Options) (string, string) {
		cfg := DefaultGossip(o.Islands)
		cfg.Shards = shardCount()
		var res GossipResult
		wall := timed(func() { res = Gossip(cfg) })
		return res.Render(), fmt.Sprintf("  [diag] events=%d wall=%v events/sec=%.0f\n",
			res.Delivered, wall.Round(time.Microsecond), float64(res.Delivered)/wall.Seconds())
	}},
	{ID: "point", Sharded: true, OnDemand: true, Run: func(o Options) (string, string) { return point(o) + "\n", "" }},
}

// Options is what a row may read; each field is the cmd/unetbench flag of
// the same name, and DefaultOptions holds the flags' defaults.
type Options struct {
	Paper         bool // fig5: the paper's full Split-C problem sizes
	Rounds, Count int  // ping-pong rounds per latency point, messages per bandwidth point

	Hosts   int  // storm: cluster size
	SimProf bool // storm, clos: add the window-protocol profile to diag

	Topo                  string // clos: topo.Generate's kind, and its three sizes
	Racks, PerRack, Spine int
	Islands               int // gossip: island switches, one host each

	Serve ServeConfig // serve: the sweep's base; zero fields take Serve's defaults
	Loads []float64   // serve: offered loads, req/s

	FaultSeed   int64         // figloss, chaos: seed of the fault injectors
	Loss, Burst float64       // chaos: override the plan's loss and good→bad rates; <0 keeps them
	Flap        time.Duration // chaos: override the flap period; <0 keeps it

	Proto, Path string // point: a name from Protos and from Paths
	Size        int    // point: message size in bytes
	BW          bool   // point: streaming bandwidth instead of round-trip latency
	Window      int    // point: TCP window in bytes
}

// DefaultOptions is the quick scale every surface starts from.
func DefaultOptions() Options {
	return Options{
		Rounds: 40, Count: 200,
		Hosts: 8,
		Topo:  "clos2", Racks: 8, PerRack: 8, Spine: 2,
		Islands:   1024,
		Loads:     []float64{20000, 40000, 60000, 80000, 100000, 140000},
		FaultSeed: FaultSeed,
		Loss:      -1, Burst: -1, Flap: -1,
		Proto: "raw", Path: "unet", Size: 32, Window: 8192,
	}
}

// Check reports the first field no row could run with, as the one-line
// usage error cmd/unetbench prints before anything runs.
func (o Options) Check() error {
	spec, err := topo.Generate(o.Topo, o.Racks, o.PerRack, o.Spine)
	if err != nil {
		return fmt.Errorf("-topo/-racks/-perrack/-spine: %v", err)
	}
	if n := len(spec.Hosts); n < 2 {
		return fmt.Errorf("-topo %s -racks %d -perrack %d: %d host, a storm needs at least 2", o.Topo, o.Racks, o.PerRack, n)
	}
	if o.Islands < 1 {
		return fmt.Errorf("-islands %d: need at least one island", o.Islands)
	}
	if !slices.Contains(strings.Fields(Protos), o.Proto) {
		return fmt.Errorf("-proto %q: have %s", o.Proto, Protos)
	}
	if !slices.Contains(strings.Fields(Paths), o.Path) {
		return fmt.Errorf("-path %q: have %s", o.Path, Paths)
	}
	if o.Rounds < 2 {
		return fmt.Errorf("-rounds %d: need at least 2 (the echo rows run half of it)", o.Rounds)
	}
	if o.Count < 4 {
		return fmt.Errorf("-count %d: need at least 4 (figloss streams a quarter of it)", o.Count)
	}
	if o.Hosts < 2 {
		return fmt.Errorf("-hosts %d: a storm needs at least 2 hosts", o.Hosts)
	}
	if lo, hi := o.sizeRange(); o.Size < lo || o.Size > hi {
		return fmt.Errorf("-size %d: -proto %s carries %d to %d bytes in one message", o.Size, o.Proto, lo, hi)
	}
	return nil
}

// sizeRange is what the point row's protocol carries in one message: an
// AAL5 PDU under raw U-Net; a UAM request, or with BW a store into the
// peer's exposed memory; a UDP datagram under the path's MTU; a TCP write of
// at least a byte (nothing else moves the stream) and at most the stream.
func (o Options) sizeRange() (lo, hi int) {
	switch o.Proto {
	case "uam":
		if o.BW {
			return 0, uam.DefaultConfig().MemSize
		}
		return 0, uam.DefaultConfig().BulkMax
	case "udp":
		mtu := ip.MTU
		if o.Path == "kernel-eth" {
			mtu = kernelpath.EthMTU
		}
		return 0, mtu - ip.HeaderSize - udp.HeaderSize
	case "tcp":
		return 1, tcpStreamBytes
	}
	return 0, atm.MaxPDU
}

// Protos and Paths name what the point row can measure: the three NIC
// firmwares under raw U-Net and the three protocols over it, and for udp
// and tcp the packet path underneath, in PathKind order.
const (
	Protos = "raw fore sba100 uam udp tcp"
	Paths  = "unet kernel-atm kernel-eth"
	// tcpStreamBytes is what the point row streams for a TCP bandwidth.
	tcpStreamBytes = 2 << 20
)

// point makes one latency or bandwidth measurement of one protocol stack
// at one message size — the parameter space beyond the paper's sweeps.
func point(o Options) string {
	kind := PathKind(slices.Index(strings.Fields(Paths), o.Path))
	params := nic.SBA200Params()
	switch o.Proto {
	case "fore":
		params = nic.ForeParams()
	case "sba100":
		params = nic.SBA100Params()
	case "uam":
		if o.BW {
			return fmt.Sprintf("uam store bandwidth @%dB: %.2f MB/s", o.Size, UAMStoreBandwidth(uam.Config{}, o.Size, o.Count))
		}
		return fmt.Sprintf("uam RTT @%dB: %.1f µs", o.Size, stats.US(UAMPingPong(uam.Config{}, o.Size, o.Rounds)))
	case "udp":
		if o.BW {
			sent, recv := UDPBandwidth(kind, o.Size, o.Count)
			return fmt.Sprintf("udp/%s bandwidth @%dB: sent %.2f MB/s, received %.2f MB/s", kind, o.Size, sent, recv)
		}
		return fmt.Sprintf("udp/%s RTT @%dB: %.1f µs", kind, o.Size, stats.US(UDPRTT(kind, o.Size, o.Rounds)))
	case "tcp":
		if o.BW {
			return fmt.Sprintf("tcp/%s bandwidth (window %d, %dB writes): %.2f MB/s",
				kind, o.Window, o.Size, TCPBandwidth(kind, o.Window, o.Size, tcpStreamBytes))
		}
		return fmt.Sprintf("tcp/%s RTT @%dB: %.1f µs", kind, o.Size, stats.US(TCPRTT(kind, o.Size, o.Rounds)))
	}
	if o.BW {
		res := RawBandwidth(params, o.Size, o.Count)
		return fmt.Sprintf("%s bandwidth @%dB: %.2f MB/s (%d delivered, %d dropped)", o.Proto, o.Size, res.MBps(), res.Delivered, res.Dropped)
	}
	return fmt.Sprintf("%s RTT @%dB: %.1f µs", o.Proto, o.Size, stats.US(RawRTT(params, o.Size, o.Rounds)))
}

// rendered is the Run of a row whose report is one table or figure.
func rendered(f func(Options) fmt.Stringer) func(Options) (string, string) {
	return func(o Options) (string, string) { return f(o).String() + "\n", "" }
}

// profiled is the Run of a storm row: its report, and under -simprof the
// shards' window-protocol profile with the share of their aggregate
// wall-clock budget spent waiting on a neighbor's clock rather than
// simulating.
//
//unetlint:allow rawgo the core counts label a wall-clock profile; they never reach a report
func profiled(o Options, storm func() (string, sim.GroupProfile)) (report, diag string) {
	var prof sim.GroupProfile
	wall := timed(func() { report, prof = storm() })
	n := len(prof.Shards)
	switch {
	case !o.SimProf:
		return report, ""
	case n == 0:
		return report, "simprof: serial run — no shard group; rerun with -shards ≥ 2\n"
	}
	return report, fmt.Sprintf("simprof (GOMAXPROCS=%d NumCPU=%d, wall %v):\n%ssync-wait share: %.1f%% of %d shards × %v wall\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), wall.Round(time.Microsecond), prof,
		100*float64(prof.Total().BarrierWait)/(float64(wall)*float64(n)), n, wall.Round(time.Microsecond))
}

// timed returns the host wall-clock time fn took: the events/sec and
// profile diagnostics, kept out of every report.
//
//unetlint:allow nondeterminism wall-clock diagnostic only; never feeds virtual time
func timed(fn func()) time.Duration {
	w0 := time.Now()
	fn()
	return time.Since(w0)
}
