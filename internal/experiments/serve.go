package experiments

import (
	"fmt"
	"strings"
	"time"

	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/stats"
	"unet/internal/testbed"
	"unet/internal/uam"
)

// Serve is the open-loop serving workload (ROADMAP item 2, first cut): a
// bank of client hosts multiplexes a large population of logical clients
// onto a small number of U-Net endpoints and drives seeded Poisson (or
// bursty) request arrivals at a configured offered load against a pool of
// server hosts, open-loop — arrivals do not wait for completions, so
// beyond the saturation knee queueing delay grows without bound and the
// tail quantiles show it. Latency is measured from each request's
// *scheduled* arrival time to the reply handler's dispatch, so send-side
// queueing (the flow-control window filling up) is part of the measurement,
// as an open-loop harness requires. Per-host latencies stream into
// per-host histograms (internal/stats) merged after the run.
//
// Everything is deterministic: arrival streams derive from per-host seeded
// PRNGs keyed by stable host names (never the engine's), all mutable state
// is owned by a single host's processes, and the report is byte-identical
// at any shard count and under either scheduler kind.

// Handler indices for the serve workload.
const (
	hServeReq = 11
	hServeRep = 12
)

// ServeConfig shapes one open-loop serving run.
type ServeConfig struct {
	// ClientHosts and Servers are the load-generating and serving host
	// counts (defaults 6 and 2). Client host i talks to every server,
	// striping requests round-robin.
	ClientHosts int
	Servers     int
	// LogicalPerHost is the number of logical clients multiplexed onto each
	// client host's endpoint (default 4096). The superposition of n
	// independent Poisson streams of rate r/n is exactly a Poisson stream of
	// rate r, so multiplexing is exact: each arrival is attributed to a
	// uniformly drawn logical client.
	LogicalPerHost int
	// Rate is the aggregate offered load in requests per second of virtual
	// time, across all client hosts (default 100_000).
	Rate float64
	// Duration is the arrival window (default 20ms). After it closes,
	// clients drain outstanding replies for up to DrainCap.
	Duration time.Duration
	// DrainCap bounds the post-window drain (default 50ms); requests still
	// unanswered then count as dropped.
	DrainCap time.Duration
	// Payload is the request payload size (default 16 bytes — the U-Net
	// single-cell fast path).
	Payload int
	// Service is the simulated per-request server CPU time before the reply
	// (default 2µs).
	Service time.Duration
	// Bursty batches arrivals: each arrival point carries a uniformly drawn
	// burst of 1..15 back-to-back requests (mean 8) with inter-point gaps
	// stretched 8× to preserve the offered load.
	Bursty bool
	// Seed drives the arrival PRNGs and the testbed (default 1).
	Seed int64
	// Shards is the testbed shard count (0 = serial).
	Shards int
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.ClientHosts <= 0 {
		c.ClientHosts = 6
	}
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.LogicalPerHost <= 0 {
		c.LogicalPerHost = 4096
	}
	if c.Rate <= 0 {
		c.Rate = 100_000
	}
	if c.Duration <= 0 {
		c.Duration = 20 * time.Millisecond
	}
	if c.DrainCap <= 0 {
		c.DrainCap = 50 * time.Millisecond
	}
	if c.Payload <= 0 {
		c.Payload = 16
	}
	if c.Service <= 0 {
		c.Service = 2 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ServeResult is one run's outcome. Everything except Wall is
// deterministic.
type ServeResult struct {
	Cfg     ServeConfig
	Sent    int
	Replied int
	Dropped int
	// Active is the number of distinct logical clients that issued at least
	// one request.
	Active int
	// End is the virtual time when the last client finished draining.
	End time.Duration
	// Steps is the total number of events executed across all engines. For
	// a fixed shard layout it is scheduler-invariant (the differential test
	// pins heap == wheel); across layouts it may differ by a few cross-shard
	// delivery re-arms, so it stays out of the golden report line.
	Steps uint64
	// Latency is the merged request-latency histogram (nanoseconds).
	Latency stats.Histogram
	// Wall is the host wall-clock time of the run — a diagnostic, never
	// part of golden output.
	Wall time.Duration
}

// Serve runs one open-loop serving experiment.
func Serve(cfg ServeConfig) ServeResult {
	cfg = cfg.withDefaults()
	nhosts := cfg.ClientHosts + cfg.Servers
	tb := testbed.New(testbed.Config{Hosts: nhosts, Seed: cfg.Seed, Shards: cfg.Shards})
	defer tb.Close()

	// Small payloads: size the UAM buffers for them instead of the 4KB bulk
	// default, so a server peered with many clients stays compact.
	mkCfg := func(peers int) uam.Config {
		return uam.Config{BulkMax: 256, MaxPeers: peers}
	}
	clients := make([]*uam.UAM, cfg.ClientHosts)
	for i := range clients {
		u, err := uam.New(tb.Hosts[i].NewProcess("am"), i, mkCfg(cfg.Servers))
		mustNoErr(err, "client uam")
		clients[i] = u
	}
	servers := make([]*uam.UAM, cfg.Servers)
	for j := range servers {
		u, err := uam.New(tb.Hosts[cfg.ClientHosts+j].NewProcess("am"), cfg.ClientHosts+j, mkCfg(cfg.ClientHosts))
		mustNoErr(err, "server uam")
		servers[j] = u
	}
	for i := range clients {
		for j := range servers {
			mustNoErr(uam.Connect(tb.Manager, clients[i], servers[j]), "connect")
		}
	}

	// Servers: charge the service time, echo the token back, then block on
	// the endpoint (PollBlock leaves no pending timer while idle, so the
	// run quiesces naturally once the clients stop).
	for j := range servers {
		srv := servers[j]
		mustNoErr(srv.RegisterHandler(hServeReq, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
			p.Sleep(cfg.Service)
			if err := u.Reply(p, hServeRep, arg, nil); err != nil {
				panic(err)
			}
		}), "server handler")
		tb.Hosts[cfg.ClientHosts+j].Spawn("srv", func(p *sim.Proc) {
			for {
				srv.PollBlock(p)
			}
		})
	}

	res := ServeResult{Cfg: cfg}
	type hostState struct {
		sent, replied, dropped int
		end                    time.Duration
		active                 int
		hist                   stats.Histogram
	}
	states := make([]hostState, cfg.ClientHosts)
	payload := make([]byte, cfg.Payload)
	perHost := cfg.Rate / float64(cfg.ClientHosts)
	for i := range clients {
		i := i
		cli := clients[i]
		st := &states[i]
		// pend maps an in-flight request token to its scheduled arrival
		// time; the reply handler (dispatched on this host's own process)
		// closes the measurement.
		pend := make(map[uint32]time.Duration)
		mustNoErr(cli.RegisterHandler(hServeRep, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
			if t0, ok := pend[arg]; ok {
				delete(pend, arg)
				st.hist.Record(int64(p.Now() - t0))
				st.replied++
			}
		}), "client handler")
		tb.Hosts[i].Spawn("cli", func(p *sim.Proc) {
			// Per-host arrival stream, keyed by a stable name so the
			// schedule is independent of the shard layout.
			rng := faults.NewRand(cfg.Seed, fmt.Sprintf("serve.cli%d", i))
			seen := make([]uint64, (cfg.LogicalPerHost+63)/64)
			var token uint32
			var next time.Duration
			for {
				burst := 1
				mean := 1.0
				if cfg.Bursty {
					burst = 1 + rng.Intn(15) // uniform 1..15, mean 8
					mean = 8.0
				}
				next += time.Duration(rng.ExpFloat64() * mean / perHost * float64(time.Second))
				if next > cfg.Duration {
					break
				}
				// Poll (processing replies) until the scheduled arrival.
				for p.Now() < next {
					cli.PollWait(p, next-p.Now())
				}
				for k := 0; k < burst; k++ {
					lc := rng.Intn(cfg.LogicalPerHost)
					if seen[lc/64]&(1<<(lc%64)) == 0 {
						seen[lc/64] |= 1 << (lc % 64)
						st.active++
					}
					token++
					pend[token] = next
					st.sent++
					sv := (i + st.sent) % cfg.Servers
					if err := cli.Request(p, cfg.ClientHosts+sv, hServeReq, token, payload); err != nil {
						panic(err)
					}
				}
			}
			// Drain: collect outstanding replies up to the cap.
			limit := cfg.Duration + cfg.DrainCap
			for len(pend) > 0 && p.Now() < limit {
				cli.PollWait(p, time.Millisecond)
			}
			st.dropped = len(pend)
			st.end = p.Now()
		})
	}

	res.Wall = timed(func() { tb.Eng.RunUntil(cfg.Duration + cfg.DrainCap + time.Second) })
	for i := range states {
		st := &states[i]
		res.Sent += st.sent
		res.Replied += st.replied
		res.Dropped += st.dropped
		res.Active += st.active
		if st.end > res.End {
			res.End = st.end
		}
		res.Latency.Merge(&st.hist)
	}
	res.Steps = tb.TotalSteps()
	return res
}

// Line renders the deterministic one-line summary of a run.
func (r ServeResult) Line() string {
	q := func(p float64) float64 { return stats.US(time.Duration(r.Latency.Quantile(p))) }
	return fmt.Sprintf(
		"load=%.0f/s sent=%d replied=%d dropped=%d active=%d p50=%.1fµs p99=%.1fµs p999=%.1fµs mean=%.1fµs end=%v",
		r.Cfg.Rate, r.Sent, r.Replied, r.Dropped, r.Active,
		q(0.50), q(0.99), q(0.999), r.Latency.Mean()/1e3, r.End)
}

// ServeSweep runs Serve over a set of offered loads and renders the
// latency-CDF-vs-offered-load figure plus per-load summary lines. The
// returned string is deterministic (golden-able); the slice carries the
// full results for callers that want diagnostics (wall time, events/sec).
func ServeSweep(base ServeConfig, loads []float64) (string, []ServeResult) {
	base = base.withDefaults()
	fig := &stats.Figure{
		Title:  "serving at scale: latency vs offered load",
		XLabel: "load(kreq/s)",
		YLabel: "latency µs (open-loop, from scheduled arrival)",
	}
	p50 := &stats.Series{Name: "p50"}
	p99 := &stats.Series{Name: "p99"}
	p999 := &stats.Series{Name: "p999"}
	fig.Series = []*stats.Series{p50, p99, p999}

	var b strings.Builder
	mode := "poisson"
	if base.Bursty {
		mode = "bursty"
	}
	fmt.Fprintf(&b, "open-loop serve: clients=%d×%d logical servers=%d shards=%d %s window=%v\n",
		base.ClientHosts, base.LogicalPerHost, base.Servers, base.Shards, mode, base.Duration)
	results := make([]ServeResult, 0, len(loads))
	for _, load := range loads {
		cfg := base
		cfg.Rate = load
		r := Serve(cfg)
		results = append(results, r)
		fmt.Fprintf(&b, "  %s\n", r.Line())
		x := load / 1000
		p50.Add(x, stats.US(time.Duration(r.Latency.Quantile(0.50))))
		p99.Add(x, stats.US(time.Duration(r.Latency.Quantile(0.99))))
		p999.Add(x, stats.US(time.Duration(r.Latency.Quantile(0.999))))
	}
	b.WriteString(fig.String())
	return b.String(), results
}
