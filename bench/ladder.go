package main

import (
	"fmt"
	"runtime"
	"time"

	"unet/internal/atm"
	"unet/internal/experiments"
	"unet/internal/fabric"
	"unet/internal/sim"
	"unet/internal/stats"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/uam"
	"unet/internal/unet"
)

// The layer ladder: each rung times one layer's public functions in
// isolation, from outside, and is named after that layer's row in DESIGN.md
// §2. A rung body builds its fixture, then hands the n operations to timed.

// sample is one batch of a rung.
type sample struct {
	d              time.Duration
	mallocs, bytes uint64
}

func timed(f func()) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return sample{d, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
}

// rung is one measured step of the ladder.
type rung struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Value       float64 `json:"value"` // median over batches
	Q1          float64 `json:"q1"`
	Q3          float64 `json:"q3"`
	Batches     int     `json:"batches"`
	OpsPerBatch int     `json:"ops_per_batch"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// rungSpec describes how to measure a rung. body performs n operations and
// returns the timed batch; per scales one operation into the unit reported
// (cells per message, say). fixed pins n for bodies whose fixture sets the
// operation count.
type rungSpec struct {
	name, unit string
	body       func(n int) sample
	per        float64 // reported units per operation second: 1e9 for ns, 1e6 for us, 1e3 for ms
	div        float64 // sub-operations per operation (cells per message); 0 means 1
	fixed      int
	batches    int  // 0 means ladderBatches
	bytes      bool // report KB allocated per operation instead of time
}

const (
	ladderBatches = 10
	batchTarget   = 4 * time.Millisecond
)

func (s rungSpec) measure() rung {
	n := s.fixed
	if n == 0 {
		// Grow the batch until it is long enough to time.
		for n = 64; s.body(n).d < batchTarget && n < 1<<22; n *= 2 {
		}
	}
	batches := s.batches
	if batches == 0 {
		batches = ladderBatches
	}
	div := s.div
	if div == 0 {
		div = 1
	}
	ops := float64(n) * div
	var vals []float64
	var mallocs, bytes uint64
	for b := 0; b < batches; b++ {
		x := s.body(n)
		if s.bytes {
			vals = append(vals, float64(x.bytes)/1024/ops)
		} else {
			vals = append(vals, x.d.Seconds()*s.per/ops)
		}
		mallocs += x.mallocs
		bytes += x.bytes
	}
	d := summarize(vals)
	total := ops * float64(batches)
	return rung{
		Name: s.name, Unit: s.unit, Value: d.Median, Q1: d.Q1, Q3: d.Q3, Batches: batches, OpsPerBatch: n,
		AllocsPerOp: float64(mallocs) / total, BytesPerOp: float64(bytes) / total,
	}
}

// trainCounter is a fabric sink that accepts whole cell trains.
type trainCounter struct{ cells int }

func (t *trainCounter) DeliverCell(atm.Cell) { t.cells++ }
func (t *trainCounter) DeliverTrain(cells []atm.Cell, _, _ time.Duration) {
	t.cells += len(cells)
}

const burst = 32 // cells sent back to back before the engine drains them

// sendBursts pushes n cells into l in bursts, draining the engine after each.
func sendBursts(e *sim.Engine, l *fabric.Link, c atm.Cell, n int) {
	for i := 0; i < n; i += burst {
		for j := 0; j < burst; j++ {
			l.Send(c)
		}
		e.Run()
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// uamPair builds two connected UAM nodes on a two-host testbed.
func uamPair() (tb *testbed.Testbed, a, b *uam.UAM) {
	tb = testbed.New(testbed.Config{Hosts: 2})
	a = must(uam.New(tb.Hosts[0].NewProcess("am"), 0, uam.Config{}))
	b = must(uam.New(tb.Hosts[1].NewProcess("am"), 1, uam.Config{}))
	check(uam.Connect(tb.Manager, a, b))
	return tb, a, b
}

// uamTimed runs the fixture's engine to quiescence and folds both nodes'
// retransmit and duplicate counts into us.
func uamTimed(tb *testbed.Testbed, us *uam.Stats, nodes ...*uam.UAM) sample {
	s := timed(func() { tb.Eng.Run() })
	for _, u := range nodes {
		us.Retransmits += u.Stats().Retransmits
		us.Duplicates += u.Stats().Duplicates
	}
	return s
}

// slope times f at two operation counts and charges only the difference,
// which removes the fixture an experiments driver builds inside the call.
func slope(f func(rounds int)) func(n int) sample {
	return func(n int) sample {
		lo := timed(func() { f(n) })
		hi := timed(func() { f(3 * n) })
		return sample{hi.d - lo.d, hi.mallocs - lo.mallocs, hi.bytes - lo.bytes}
	}
}

// meshConnect times every Manager.Connect of the given edge list on a
// fabric compiled from spec, endpoints already created.
func meshConnect(spec func() *topo.Spec, edges func(n int) [][2]int) (func(int) sample, int) {
	count := len(edges(len(spec().Hosts)))
	return func(int) sample {
		tb := testbed.New(testbed.Config{Topology: spec()})
		defer tb.Close()
		eps := make([]*unet.Endpoint, len(tb.Hosts))
		for i, h := range tb.Hosts {
			eps[i] = must(h.Kernel.CreateEndpoint(nil, h.NewProcess("app"), unet.EndpointConfig{SegmentSize: 8 << 10}))
		}
		es := edges(len(eps))
		return timed(func() {
			for _, e := range es {
				must(tb.Manager.Connect(nil, eps[e[0]], eps[e[1]]))
			}
		})
	}, count
}

func allPairs(n int) [][2]int {
	var es [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			es = append(es, [2]int{i, j})
		}
	}
	return es
}

// ringChords is the island overlay's edge set: ring neighbours plus the
// antipodal chord, as the gossip workload connects them.
func ringChords(n int) [][2]int {
	var es [][2]int
	for i := 0; i < n; i++ {
		es = append(es, [2]int{i, (i + 1) % n})
		if i < n/2 {
			es = append(es, [2]int{i, i + n/2})
		}
	}
	return es
}

func clos64() *topo.Spec   { return topo.Clos2(8, 8, 2) }
func island1k() *topo.Spec { return topo.Island(1024, 1) }

// ladderSpecs lists the rungs. The UAM rungs add their instances' reliability
// counters to us: on the ladder's loss-free wire both must stay 0.
func ladderSpecs(us *uam.Stats) []rungSpec {
	payload1k := make([]byte, 1024)
	cells1k := float64(atm.CellsFor(1024))
	connect64, n64 := meshConnect(clos64, allPairs)
	connect1k, n1k := meshConnect(island1k, ringChords)

	return []rungSpec{
		// internal/sim
		{name: "sim.event_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			left := n
			var fn func()
			fn = func() {
				if left--; left > 0 {
					e.After(time.Microsecond, fn)
				}
			}
			e.After(time.Microsecond, fn)
			return timed(func() { e.Run() })
		}},
		{name: "sim.timer_cancel_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			nop := func() {}
			return timed(func() {
				for i := 0; i < n; i++ {
					e.After(time.Duration(i)*time.Second, nop).Cancel()
				}
			})
		}},
		{name: "sim.proc_switch_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			defer e.Shutdown()
			q := sim.NewFIFO[int](1)
			e.Spawn("producer", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					q.Put(p, i)
				}
			})
			e.Spawn("consumer", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					q.Get(p)
				}
			})
			return timed(func() { e.Run() })
		}},
		{name: "sim.sleep_resume_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			defer e.Shutdown()
			e.Spawn("sleeper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(time.Microsecond)
				}
			})
			return timed(func() { e.Run() })
		}},

		// internal/atm
		{name: "atm.segment_ns_per_cell", unit: "ns", per: 1e9, div: cells1k, body: func(n int) sample {
			var cells []atm.Cell
			return timed(func() {
				for i := 0; i < n; i++ {
					cells = atm.SegmentAppend(cells[:0], 5, payload1k)
				}
			})
		}},
		{name: "atm.reassemble_ns_per_cell", unit: "ns", per: 1e9, div: cells1k, body: func(n int) sample {
			cells := atm.Segment(5, payload1k)
			var r atm.Reassembler
			return timed(func() {
				for i := 0; i < n; i++ {
					for _, c := range cells {
						if _, err := r.Add(c); err != nil {
							panic(err)
						}
					}
				}
			})
		}},

		// internal/fabric
		{name: "fabric.link_cell_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			l := fabric.NewLink(e, "rung", fabric.DefaultLinkParams(), &trainCounter{})
			return timed(func() { sendBursts(e, l, atm.Cell{VCI: 5}, n) })
		}},
		{name: "fabric.link_percell_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			got := 0
			l := fabric.NewLink(e, "rung", fabric.DefaultLinkParams(), fabric.SinkFunc(func(atm.Cell) { got++ }))
			return timed(func() { sendBursts(e, l, atm.Cell{VCI: 5}, n) })
		}},
		{name: "fabric.switch_cell_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			sw := fabric.NewSwitch(e, "sw", 2, fabric.DefaultSwitchLatency, fabric.DefaultLinkParams(),
				[]fabric.CellSink{&trainCounter{}, &trainCounter{}})
			check(sw.Route(0, 7, 1))
			up := fabric.NewLink(e, "up", fabric.DefaultLinkParams(), sw.PortSink(0))
			return timed(func() { sendBursts(e, up, atm.Cell{VCI: 7}, n) })
		}},

		// internal/topo
		{name: "topo.compile_clos64_ms", unit: "ms", per: 1e3, fixed: 8, body: func(n int) sample {
			return timed(func() {
				for i := 0; i < n; i++ {
					must(topo.Compile(sim.New(1), clos64(), nil, nil))
				}
			})
		}},
		{name: "topo.compile_island1k_ms", unit: "ms", per: 1e3, fixed: 1, batches: 5, body: func(n int) sample {
			return timed(func() { must(topo.Compile(sim.New(1), island1k(), nil, nil)) })
		}},
		{name: "topo.route_us", unit: "us", per: 1e6, fixed: 64 * 63, body: func(n int) sample {
			f := must(topo.Compile(sim.New(1), clos64(), nil, nil))
			return timed(func() {
				vci := atm.VCI(32)
				for from := 0; from < 64; from++ {
					for to := 0; to < 64; to++ {
						if from != to {
							check(f.Route(from, vci, to))
							vci++
						}
					}
				}
			})
		}},
		{name: "topo.hop3_cell_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			e := sim.New(1)
			f := must(topo.Compile(e, clos64(), nil, nil))
			check(f.Route(0, 7, 63)) // rack 0 to rack 7: leaf, spine, leaf
			f.SetHostSink(63, &trainCounter{})
			return timed(func() { sendBursts(e, f.Uplink(0), atm.Cell{VCI: 7}, n) })
		}},

		// internal/nic
		{name: "nic.stream_1k_ns_per_msg", unit: "ns", per: 1e9, body: func(n int) sample {
			tb := testbed.New(testbed.Config{Hosts: 2})
			defer tb.Close()
			pr := must(tb.NewPair(0, 1, unet.EndpointConfig{}, 32))
			return timed(func() {
				if r := pr.Stream(n, 1024); r.Delivered != n {
					panic(fmt.Sprintf("stream delivered %d of %d", r.Delivered, n))
				}
			})
		}},

		// internal/unet
		{name: "unet.echo_1cell_ns", unit: "ns", per: 1e9, body: echo(32)},
		{name: "unet.echo_1k_ns", unit: "ns", per: 1e9, body: echo(1024)},
		{name: "unet.endpoint_create_us", unit: "us", per: 1e6, fixed: 64, body: createEndpoints},
		{name: "unet.endpoint_create_kb", unit: "KB", fixed: 64, batches: 3, bytes: true, body: createEndpoints},
		{name: "unet.connect_us", unit: "us", per: 1e6, fixed: n64, batches: 5, body: connect64},
		{name: "unet.connect_kb_at_64", unit: "KB", fixed: n64, batches: 2, bytes: true, body: connect64},
		{name: "unet.connect_kb_at_1k", unit: "KB", fixed: n1k, batches: 2, bytes: true, body: connect1k},

		// internal/uam
		{name: "uam.rtt_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			tb, a, b := uamPair()
			defer tb.Close()
			replies := 0
			check(b.RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, _ int, arg uint32, data []byte) {
				check(u.Reply(p, 2, arg, data))
			}))
			check(a.RegisterHandler(2, func(*uam.UAM, *sim.Proc, int, uint32, []byte) { replies++ }))
			tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
				for {
					b.PollBlock(p)
				}
			})
			payload := make([]byte, 16)
			tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					check(a.Request(p, 1, 1, uint32(i), payload))
					for replies <= i {
						a.PollWait(p, time.Millisecond)
					}
				}
			})
			return uamTimed(tb, us, a, b)
		}},
		{name: "uam.store_4k_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			tb, a, b := uamPair()
			defer tb.Close()
			tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
				for {
					b.PollBlock(p)
				}
			})
			block := make([]byte, 4096)
			tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					check(a.Store(p, 1, 0, block, 0, 0))
				}
				check(a.Flush(p, 1))
			})
			return uamTimed(tb, us, a, b)
		}},
		{name: "uam.new_us", unit: "us", per: 1e6, fixed: 64, body: newUAMs},
		{name: "uam.new_kb", unit: "KB", fixed: 64, batches: 3, bytes: true, body: newUAMs},

		// internal/ip, internal/splitc, internal/stats: no workload depends
		// on them; the rungs exist so a change there is not blind.
		{name: "ip.udp_rtt_ns", unit: "ns", per: 1e9, div: 2, fixed: 200, body: slope(func(r int) {
			experiments.UDPRTT(experiments.PathUNet, 4, r)
		})},
		{name: "ip.tcp_rtt_ns", unit: "ns", per: 1e9, div: 2, fixed: 200, body: slope(func(r int) {
			experiments.TCPRTT(experiments.PathUNet, 4, r)
		})},
		{name: "splitc.rpc_rtt_ns", unit: "ns", per: 1e9, div: 2, fixed: 200, body: slope(func(r int) {
			experiments.SplitCRPCRTT(experiments.MachineUNetATM, r)
		})},
		{name: "stats.hist_record_ns", unit: "ns", per: 1e9, body: func(n int) sample {
			var h stats.Histogram
			return timed(func() {
				x := int64(1)
				for i := 0; i < n; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					h.Record(int64(uint64(x) >> 40)) // 0..16M ns: every bucket decade a latency lands in
				}
			})
		}},
	}
}

// echo is the raw U-Net round trip of size-byte messages (Pair.PingPong).
func echo(size int) func(n int) sample {
	return func(n int) sample {
		tb := testbed.New(testbed.Config{Hosts: 2})
		defer tb.Close()
		pr := must(tb.NewPair(0, 1, unet.EndpointConfig{}, 32))
		return timed(func() { pr.PingPong(n, size) })
	}
}

// createEndpoints creates one default-sized endpoint on each of n hosts.
func createEndpoints(n int) sample {
	tb := testbed.New(testbed.Config{Hosts: n})
	defer tb.Close()
	return timed(func() {
		for _, h := range tb.Hosts {
			must(h.Kernel.CreateEndpoint(nil, h.NewProcess("app"), unet.EndpointConfig{}))
		}
	})
}

// newUAMs creates one default UAM instance on each of n hosts.
func newUAMs(n int) sample {
	tb := testbed.New(testbed.Config{Hosts: n})
	defer tb.Close()
	return timed(func() {
		for i, h := range tb.Hosts {
			must(uam.New(h.NewProcess("am"), i, uam.Config{}))
		}
	})
}

// runLadder measures every rung, one span each.
func runLadder(tr *tracer) ([]rung, uam.Stats) {
	var rungs []rung
	var us uam.Stats
	for _, s := range ladderSpecs(&us) {
		end := tr.span("ladder." + s.name)
		rungs = append(rungs, s.measure())
		end()
		runtime.GC()
	}
	return rungs, us
}
