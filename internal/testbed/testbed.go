// Package testbed assembles complete simulated clusters — engine, fabric,
// switch, hosts, NICs, manager — matching the paper's experimental set-up
// (§4.2: eight SPARCstations on a Fore ASX-200 with 140 Mbit/s TAXI
// links). It is the shared fixture for tests, benchmarks, the harness and
// the examples.
package testbed

import (
	"fmt"

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
	// NIC is the interface model (default SBA200Params).
	NIC *nic.Params
	// Shards selects the parallel execution layout: 0 or 1 builds the
	// classic serial testbed (hosts and switches on one engine); k ≥ 2
	// places hosts and switches on up to k shard engines by topo.Place's
	// rule (the single-switch cluster: host i on shard i mod min(k, Hosts),
	// the switch on the root), each run on its own goroutine under the
	// conservative window protocol (see internal/sim shard.go). Results are
	// byte-identical to serial.
	Shards int
	// Faults applies a deterministic impairment plan (internal/faults) to
	// every uplink and downlink and, if SwitchQueueCells is set, bounds the
	// switch output queues. nil (or an all-zero plan) is the perfect wire —
	// byte-identical to the fault-free testbed at any shard count.
	Faults *faults.Plan
	// Topology is the fabric's shape and timing (internal/topo); nil means
	// the paper's single-switch cluster, topo.Star("atm", Hosts), on
	// 140 Mbit/s TAXI links. When set, Hosts is taken from the spec, shard
	// placement is topology-aware (each top-of-rack switch with its hosts on
	// one shard, higher stages on the root engine), and routes become
	// multi-hop. Everything else — NIC model, manager, fault plans — applies
	// unchanged.
	Topology *topo.Spec
}

// Testbed is an assembled cluster.
type Testbed struct {
	Eng *sim.Engine
	// Topo is the compiled fabric the hosts attach to — one switch for the
	// paper's cluster, Topo.Switches[0] — and Net the same object behind the
	// surface the manager and the NICs program: uplinks, downlinks, circuits.
	Topo *topo.Fabric
	Net  fabric.Network
	// Fabric is never set. The frozen bench/workloads.go still compiles a
	// branch for a testbed without Topo that reads Fabric.Switch and
	// Fabric.UndeliveredCells; the field goes with that branch at the next
	// benchmark PR, and nothing else may read it.
	Fabric *struct {
		*topo.Fabric
		Switch *fabric.Switch
	}
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
	nicp := nic.SBA200Params()
	if cfg.NIC != nil {
		nicp = *cfg.NIC
	}

	// The fabric is always a compiled spec, and the caller's is only read.
	spec := cfg.Topology
	if spec == nil {
		spec = topo.Star("atm", cfg.Hosts)
	}
	cfg.Hosts = len(spec.Hosts)

	e := sim.New(cfg.Seed)
	hostEng := make([]*sim.Engine, len(spec.Hosts))
	swEng := make([]*sim.Engine, len(spec.Switches))
	hostShard, swShard, shards := topo.Place(spec, cfg.Shards)
	shardEng := make([]*sim.Engine, shards)
	for j := range shardEng {
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
	tb := &Testbed{Eng: e, Topo: topo.MustCompile(e, spec, hostEng, swEng)}
	tb.Net = tb.Topo
	m := unet.NewManager(tb.Net)
	tb.Manager = m
	for i := 0; i < cfg.Hosts; i++ {
		h := unet.NewHost(tb.Net.HostEngine(i), fmt.Sprintf("host%d", i), unet.DefaultNodeParams())
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
			tb.Topo.SetOutputQueueCells(pl.SwitchQueueCells)
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
