package fabric

import (
	"unet/internal/atm"
	"unet/internal/sim"
)

// Network is the fabric surface the connection manager and the NIC attach
// path program: a set of host attachment points (indexed 0..Size-1) plus
// circuit provisioning between them. Every fabric is built one way, as a
// compiled topo.Fabric (internal/topo) — the paper's single-switch testbed
// is topo.Star — whose Provision swaps labels at every switch along the
// computed path. The interface is what keeps unet.Manager and nic.Attach
// from importing topo (which imports this package), and what lets a test
// put a fake fabric under them.
type Network interface {
	// Size returns the number of host attachment points.
	Size() int
	// Uplink returns host's transmit link into the fabric.
	Uplink(host int) *Link
	// SetHostSink registers the receive sink (a NIC input FIFO) for host.
	SetHostSink(host int, s CellSink)
	// HostEngine returns the shard engine the host's NIC and processes
	// must run on.
	HostEngine(host int) *sim.Engine
	// Downlink returns the last-hop link toward host (for loss and fault
	// injection at the receive side).
	Downlink(host int) *Link
	// Provision sets up a one-way circuit from host `from` to host `to`:
	// the lowest free label on every link of the path, swapped at every
	// forwarding stage. tx is the label the sender puts on its cells, rx
	// the one they arrive with. A link with no free label is an error
	// naming it; nothing stays installed.
	Provision(from, to int) (tx, rx atm.VCI, err error)
	// Unroute removes the per-stage entries of the circuit that leaves host
	// `from` on label tx, and frees its labels.
	Unroute(from int, tx atm.VCI)
}
