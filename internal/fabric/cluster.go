package fabric

import (
	"fmt"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// Cluster wires n hosts to one switch with full-duplex fiber, the topology
// of the paper's 8-node ATM cluster (five SPARCstation-20s and three
// SPARCstation-10s on an ASX-200). NIC models attach afterwards: each host
// sends on its Uplink and receives through the sink registered with
// SetHostSink.
//
// Cluster is deliberately single-switch: every host occupies exactly one
// port of the one switch, so host indices and switch ports coincide and a
// route is always a single table entry. That invariant is enforced at
// construction (the switch's port count must equal the host count) and in
// every host-indexed accessor. Fabrics with more than one switch — Clos
// stages, rings, island overlays — are built by internal/topo, which
// compiles a topology spec onto the same Link/Switch primitives and
// installs multi-hop routes; Cluster never grows a second switch.
type Cluster struct {
	Engine    *sim.Engine
	Switch    *Switch
	uplinks   []*Link
	up        []Labels // per-host uplink label space
	hostSinks []CellSink
	// hostEng is the shard engine each host's processes and NIC run on
	// (all equal to Engine in a serial cluster).
	hostEng []*sim.Engine
	undeliv uint64
}

// hostPort indirects a switch output port to the host sink registered
// later with SetHostSink. It passes cell trains through when the host sink
// understands them (the NIC models do) and otherwise falls back to
// scheduling per-cell deliveries at the train's arrival times.
type hostPort struct {
	c *Cluster
	i int
}

func (h hostPort) DeliverCell(cell atm.Cell) {
	s := h.c.hostSinks[h.i]
	if s == nil {
		h.c.undeliv++
		return
	}
	s.DeliverCell(cell)
}

func (h hostPort) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	s := h.c.hostSinks[h.i]
	if s == nil {
		h.c.undeliv += uint64(len(cells))
		return
	}
	if ts, ok := s.(TrainSink); ok {
		ts.DeliverTrain(cells, first, spacing)
		return
	}
	// Per-cell fallback: cells[k] for k > 0 arrive in the future, so they
	// must be re-scheduled (the train slice is only valid during this call,
	// hence the per-cell copy into the closure). Scheduling goes to the
	// host's own shard engine — the train was delivered there.
	for k := 1; k < len(cells); k++ {
		cell := cells[k]
		h.c.hostEng[h.i].At(first+time.Duration(k)*spacing, func() { h.DeliverCell(cell) })
	}
	h.DeliverCell(cells[0])
}

// NewCluster builds an n-host star around one switch, everything on one
// engine.
func NewCluster(e *sim.Engine, name string, n int, lp LinkParams, switchLatency time.Duration) *Cluster {
	return NewShardedCluster(e, name, make([]*sim.Engine, n), lp, switchLatency)
}

// NewShardedCluster builds a star whose hosts may live on different shard
// engines of root's group: host i's NIC and processes run on hostEng[i]
// (nil or root means colocated with the switch). The switch always runs on
// root. Links to and from a remote host become cross-shard links, whose
// fixed latency (cell serialization + fiber propagation) is exactly the
// lookahead the group's conservative window protocol synchronizes on — the
// paper's own decoupling argument (§3): hosts interact only through the
// switch over links of at least one cell time.
//
// Exchange registration order is fixed — switch→host links in host order,
// then host→switch links in host order — which is the order cross-shard
// arrivals fire in when they tie on both arrival and send time.
func NewShardedCluster(root *sim.Engine, name string, hostEng []*sim.Engine, lp LinkParams, switchLatency time.Duration) *Cluster {
	n := len(hostEng)
	c := &Cluster{Engine: root, up: make([]Labels, n), hostSinks: make([]CellSink, n), hostEng: make([]*sim.Engine, n)}
	out := make([]*Link, n)
	for i := 0; i < n; i++ {
		he := hostEng[i]
		if he == nil {
			he = root
		}
		c.hostEng[i] = he
		pname := fmt.Sprintf("%s.sw.port%d", name, i)
		if he != root {
			out[i] = NewCrossLink(root, he, pname, lp, hostPort{c: c, i: i})
		} else {
			out[i] = NewLink(root, pname, lp, hostPort{c: c, i: i})
		}
	}
	c.Switch = NewSwitchWithLinks(root, name+".sw", switchLatency, out)
	if c.Switch.Ports() != n {
		panic(fmt.Sprintf("fabric: cluster %s wired %d switch ports for %d hosts; Cluster is strictly single-switch with one port per host — multi-switch fabrics are built by internal/topo", name, c.Switch.Ports(), n))
	}
	for i := 0; i < n; i++ {
		uname := fmt.Sprintf("%s.up%d", name, i)
		if c.hostEng[i] != root {
			c.uplinks = append(c.uplinks, NewCrossLink(c.hostEng[i], root, uname, lp, c.Switch.PortSink(i)))
		} else {
			c.uplinks = append(c.uplinks, NewLink(root, uname, lp, c.Switch.PortSink(i)))
		}
	}
	return c
}

// checkHost enforces the single-switch invariant at the accessor surface:
// a host index is a port of the one switch, nothing else.
func (c *Cluster) checkHost(host int, op string) {
	if host < 0 || host >= len(c.uplinks) {
		panic(fmt.Sprintf("fabric: %s host %d out of range [0,%d); Cluster is strictly single-switch with one port per host — multi-switch fabrics are built by internal/topo", op, host, len(c.uplinks)))
	}
}

// HostEngine returns the shard engine host's NIC and processes must run on.
func (c *Cluster) HostEngine(host int) *sim.Engine {
	c.checkHost(host, "HostEngine")
	return c.hostEng[host]
}

// Size returns the number of host ports.
func (c *Cluster) Size() int { return len(c.uplinks) }

// Uplink returns host's transmit link into the switch.
func (c *Cluster) Uplink(host int) *Link {
	c.checkHost(host, "Uplink")
	return c.uplinks[host]
}

// Downlink returns the switch output link toward host (for loss injection).
func (c *Cluster) Downlink(host int) *Link {
	c.checkHost(host, "Downlink")
	return c.Switch.OutputLink(host)
}

// SetHostSink registers the receive sink (a NIC input FIFO) for host.
func (c *Cluster) SetHostSink(host int, s CellSink) {
	c.checkHost(host, "SetHostSink")
	c.hostSinks[host] = s
}

// Provision sets up a circuit from host `from` to host `to`: the lowest
// free label on from's uplink, swapped at the switch for the lowest free
// one on to's downlink. Per-input-port routes extend protection across the
// network (§3.2). Host indices are the switch ports — the one-entry
// special case of the multi-hop walk internal/topo performs.
func (c *Cluster) Provision(from, to int) (tx, rx atm.VCI, err error) {
	c.checkHost(from, "Provision")
	if tx, err = c.up[from].Alloc(c.uplinks[from].name); err != nil {
		return 0, 0, err
	}
	if rx, err = c.Switch.Swap(from, tx, to); err != nil {
		c.up[from].Free(tx)
		return 0, 0, err
	}
	return tx, rx, nil
}

// Route programs the switch to deliver vci, arriving from host `from`, to
// host `to` under the same label: the explicit form of Provision, drawing
// on the same label spaces.
func (c *Cluster) Route(from int, vci atm.VCI, to int) error {
	if err := c.Switch.Route(from, vci, to); err != nil {
		return err
	}
	c.up[from].Take(vci)
	return nil
}

// Unroute removes a provisioned route again (channel tear-down).
func (c *Cluster) Unroute(from int, vci atm.VCI) {
	c.checkHost(from, "Unroute")
	c.up[from].Free(vci)
	c.Switch.Unroute(from, vci)
}

// UndeliveredCells counts cells that reached a port with no attached NIC.
func (c *Cluster) UndeliveredCells() uint64 { return c.undeliv }
