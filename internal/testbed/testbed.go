// Package testbed assembles complete simulated clusters — engine, fabric,
// switch, hosts, NICs, manager — matching the paper's experimental set-up
// (§4.2: eight SPARCstations on a Fore ASX-200 with 140 Mbit/s TAXI
// links). It is the shared fixture for tests, benchmarks, the harness and
// the examples.
package testbed

import (
	"fmt"
	"time"

	"unet/internal/fabric"
	"unet/internal/faults"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/topo"
	"unet/internal/unet"
)

// Config selects the cluster's shape and models.
type Config struct {
	// Hosts is the number of workstations (default 2).
	Hosts int
	// Seed drives all randomness (default 1).
	Seed int64
	// Node is the host CPU cost model (default DefaultNodeParams).
	Node *unet.NodeParams
	// NIC is the interface model (default SBA200Params).
	NIC *nic.Params
	// Link is the fiber timing (default 140 Mbit/s TAXI).
	Link *fabric.LinkParams
	// SwitchLatency is the ASX-200 forwarding latency (default 2 µs).
	SwitchLatency time.Duration
	// Shards selects the parallel execution layout: 0 or 1 builds the
	// classic serial testbed (hosts and switch on one engine); k ≥ 2
	// partitions the hosts round-robin onto min(k, Hosts) shard engines,
	// each run on its own goroutine under the conservative window protocol
	// (see internal/sim shard.go). Results are byte-identical to serial.
	Shards int
	// Faults applies a deterministic impairment plan (internal/faults) to
	// every uplink and downlink and, if SwitchQueueCells is set, bounds the
	// switch output queues. nil (or an all-zero plan) is the perfect wire —
	// byte-identical to the fault-free testbed at any shard count.
	Faults *faults.Plan
	// Topology, when set, compiles a declarative multi-switch fabric
	// (internal/topo) instead of the single-switch cluster: Hosts is taken
	// from the spec, shard placement is topology-aware (each top-of-rack
	// switch with its hosts on one shard, higher stages on the root
	// engine), and routes become multi-hop. Everything else — NIC model,
	// manager, fault plans — applies unchanged.
	Topology *topo.Spec
}

// Testbed is an assembled cluster.
type Testbed struct {
	Eng *sim.Engine
	// Net is the fabric the hosts attach to: *fabric.Cluster for the
	// classic single-switch testbed, *topo.Fabric when Config.Topology is
	// set. Code that only needs uplinks, downlinks and routes programs
	// against this.
	Net fabric.Network
	// Fabric is the single-switch cluster (nil when a Topology is set).
	Fabric *fabric.Cluster
	// Topo is the compiled multi-switch fabric (nil without a Topology).
	Topo    *topo.Fabric
	Manager *unet.Manager
	Hosts   []*unet.Host
	Devices []*nic.Device

	// UpFaults and DownFaults are the per-link injector chains installed by
	// Config.Faults (nil entries when the plan leaves links clean): host i's
	// transmit path into the switch and the switch's output toward host i.
	UpFaults   []*faults.Chain
	DownFaults []*faults.Chain
}

// New builds a cluster per cfg.
func New(cfg Config) *Testbed {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	node := unet.DefaultNodeParams()
	if cfg.Node != nil {
		node = *cfg.Node
	}
	nicp := nic.SBA200Params()
	if cfg.NIC != nil {
		nicp = *cfg.NIC
	}
	link := fabric.DefaultLinkParams()
	if cfg.Link != nil {
		link = *cfg.Link
	}
	if cfg.SwitchLatency == 0 {
		cfg.SwitchLatency = fabric.DefaultSwitchLatency
	}

	e := sim.New(cfg.Seed)
	tb := &Testbed{Eng: e}
	if spec := cfg.Topology; spec != nil {
		cfg.Hosts = len(spec.Hosts)
		if cfg.SwitchLatency != fabric.DefaultSwitchLatency && spec.SwitchLatency == 0 {
			spec.SwitchLatency = cfg.SwitchLatency
		}
		hostEng := make([]*sim.Engine, len(spec.Hosts))
		swEng := make([]*sim.Engine, len(spec.Switches))
		if k := cfg.Shards; k > 1 {
			// One shard can hold several racks but never a fraction of one:
			// cap the shard count at the number of stage-0 switches.
			tors := 0
			for j := range spec.Switches {
				if spec.Switches[j].Stage == 0 {
					tors++
				}
			}
			if k > tors {
				k = tors
			}
			hostShard, swShard := topo.Place(spec, k)
			shardEng := make([]*sim.Engine, k)
			for j := 0; j < k; j++ {
				shardEng[j] = e.NewShard(cfg.Seed + int64(j) + 1)
			}
			for i, s := range hostShard {
				if s >= 0 {
					hostEng[i] = shardEng[s]
				}
			}
			for i, s := range swShard {
				if s >= 0 {
					swEng[i] = shardEng[s]
				}
			}
		}
		tb.Topo = topo.MustCompile(e, spec, hostEng, swEng)
		tb.Net = tb.Topo
	} else {
		hostEng := make([]*sim.Engine, cfg.Hosts)
		if k := cfg.Shards; k > 1 {
			if k > cfg.Hosts {
				k = cfg.Hosts
			}
			shardEng := make([]*sim.Engine, k)
			for j := 0; j < k; j++ {
				shardEng[j] = e.NewShard(cfg.Seed + int64(j) + 1)
			}
			for i := range hostEng {
				hostEng[i] = shardEng[i%k]
			}
		}
		tb.Fabric = fabric.NewShardedCluster(e, "atm", hostEng, link, cfg.SwitchLatency)
		tb.Net = tb.Fabric
	}
	m := unet.NewManager(tb.Net)
	tb.Manager = m
	for i := 0; i < cfg.Hosts; i++ {
		h := unet.NewHost(tb.Net.HostEngine(i), fmt.Sprintf("host%d", i), node)
		d := nic.Attach(h, tb.Net, m, i, nicp)
		tb.Hosts = append(tb.Hosts, h)
		tb.Devices = append(tb.Devices, d)
	}
	if cfg.Faults != nil {
		pl := *cfg.Faults
		tb.UpFaults = make([]*faults.Chain, cfg.Hosts)
		tb.DownFaults = make([]*faults.Chain, cfg.Hosts)
		for i := 0; i < cfg.Hosts; i++ {
			// Per-link streams are keyed by the fixed link names ("atm.up0",
			// "clos2.leaf1.port3", ...), so the fault pattern a host sees
			// depends on the topology, never on the shard layout.
			if ch := pl.Build(tb.Net.Uplink(i).Name()); ch != nil {
				tb.UpFaults[i] = ch
				tb.Net.Uplink(i).SetInjector(ch)
			}
			if ch := pl.Build(tb.Net.Downlink(i).Name()); ch != nil {
				tb.DownFaults[i] = ch
				tb.Net.Downlink(i).SetInjector(ch)
			}
		}
		if pl.SwitchQueueCells > 0 {
			if tb.Fabric != nil {
				tb.Fabric.Switch.SetOutputQueueCells(pl.SwitchQueueCells)
			} else {
				tb.Topo.SetOutputQueueCells(pl.SwitchQueueCells)
			}
		}
	}
	return tb
}

// FaultTotal sums impairment accounting over every installed injector
// chain (zero when Config.Faults was nil).
func (tb *Testbed) FaultTotal() faults.FaultStats {
	var sum faults.FaultStats
	for _, chains := range [][]*faults.Chain{tb.UpFaults, tb.DownFaults} {
		for _, ch := range chains {
			if ch == nil {
				continue
			}
			s := ch.Stats()
			sum.Cells += s.Cells
			sum.Dropped += s.Dropped
			sum.Corrupted += s.Corrupted
			sum.HdrDamage += s.HdrDamage
			sum.Duplicate += s.Duplicate
			sum.Delayed += s.Delayed
			sum.DownDrops += s.DownDrops
		}
	}
	return sum
}

// Close shuts the engine down, unwinding all simulated processes.
func (tb *Testbed) Close() { tb.Eng.Shutdown() }

// TotalSteps sums executed-event counts over every engine in the cluster
// (the root plus any shards). The total can differ by a handful across
// shard layouts, because a cross-shard link groups cells into delivery
// trains by what its ring had published, not by what a local link would
// have held. Virtual-time results are identical regardless; treat this as
// a volume diagnostic, not a golden quantity across shard counts.
func (tb *Testbed) TotalSteps() uint64 {
	total := tb.Eng.Steps()
	seen := map[*sim.Engine]bool{tb.Eng: true}
	for i := range tb.Hosts {
		if e := tb.Net.HostEngine(i); !seen[e] {
			seen[e] = true
			total += e.Steps()
		}
	}
	return total
}

// Pair is a connected endpoint pair on hosts 0 and 1 with receive buffers
// provided, ready for ping-pong style experiments.
type Pair struct {
	TB       *Testbed
	EpA, EpB *unet.Endpoint
	ChA, ChB unet.ChannelID
	// StageA and StageB are segment offsets past the receive buffers,
	// usable as send staging space.
	StageA, StageB int
}

// NewPair creates endpoints on hosts a and b with cfg (zero value for
// defaults), connects them, and provisions nbufs receive buffers each,
// starting at segment offset 0. Send-side staging space begins at the
// returned SendBase offset.
func (tb *Testbed) NewPair(a, b int, cfg unet.EndpointConfig, nbufs int) (*Pair, error) {
	prA := tb.Hosts[a].NewProcess("app")
	prB := tb.Hosts[b].NewProcess("app")
	epA, err := tb.Hosts[a].Kernel.CreateEndpoint(nil, prA, cfg)
	if err != nil {
		return nil, err
	}
	epB, err := tb.Hosts[b].Kernel.CreateEndpoint(nil, prB, cfg)
	if err != nil {
		return nil, err
	}
	ch, err := tb.Manager.Connect(nil, epA, epB)
	if err != nil {
		return nil, err
	}
	if nbufs > 0 {
		if _, err := epA.ProvideRecvBuffers(nil, 0, nbufs); err != nil {
			return nil, err
		}
		if _, err := epB.ProvideRecvBuffers(nil, 0, nbufs); err != nil {
			return nil, err
		}
	}
	return &Pair{
		TB: tb, EpA: epA, EpB: epB, ChA: ch.ChanA, ChB: ch.ChanB,
		StageA: SendBase(epA, nbufs), StageB: SendBase(epB, nbufs),
	}, nil
}

// SendBase returns the first segment offset past n receive buffers of the
// endpoint's configured size — where send staging space starts for
// fixtures built with NewPair.
func SendBase(ep *unet.Endpoint, nbufs int) int {
	return nbufs * ep.Config().RecvBufSize
}
