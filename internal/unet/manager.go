package unet

import (
	"fmt"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
)

// Manager is the operating-system service of §3.2 that "assists the
// application in determining the correct tag to use": it has the fabric
// provision a circuit in each direction, performs the authorization
// checks, and registers the tags with each host's U-Net device. VCIs are
// local to a link and swapped at every switch, so each side's (tx, rx)
// pair names only its own uplink and downlink, and a device's demux table
// spans the channels open on that device. One Manager serves a fabric, of
// one switch or many.
type Manager struct {
	cluster fabric.Network
	ports   map[*Host]int
}

// NewManager creates the connection-management service for a fabric.
func NewManager(c fabric.Network) *Manager {
	return &Manager{cluster: c, ports: make(map[*Host]int)}
}

// Register associates a host with its switch port. NIC attach helpers call
// this.
func (m *Manager) Register(h *Host, port int) { m.ports[h] = port }

// Channel is the result of connecting two endpoints: the per-endpoint
// channel identifiers that name the full-duplex VCI pair. AtoB and BtoA
// are each sender's tx label — the VCI its cells carry on its own uplink,
// not the one they arrive with (Endpoint.ChannelVCIs has both per side).
type Channel struct {
	A, B  *Endpoint
	AtoB  atm.VCI
	BtoA  atm.VCI
	ChanA ChannelID
	ChanB ChannelID
}

// Connect establishes a full-duplex communication channel between two
// endpoints (§3.2, §4.2.2: "the tags used for the ATM network consist of a
// VCI pair"). It provisions the two one-way circuits and registers each
// side's tag pair with its device. The cost of the two system calls is
// charged to p. A link with no free VCI fails the connect.
func (m *Manager) Connect(p *sim.Proc, a, b *Endpoint) (*Channel, error) {
	if a.closed || b.closed {
		return nil, ErrClosed
	}
	portA, okA := m.ports[a.host]
	portB, okB := m.ports[b.host]
	if !okA || !okB {
		return nil, fmt.Errorf("unet: host not registered with manager")
	}
	p.Charge(a.host.Params.Syscall)
	p.Charge(b.host.Params.Syscall)

	// Circuits are provisioned per input port: A's tx label is only valid
	// arriving from A's port, B's only from B's — no third host can inject
	// cells on this channel (§3.2).
	txA, rxB, err := m.cluster.Provision(portA, portB)
	if err != nil {
		return nil, err
	}
	txB, rxA, err := m.cluster.Provision(portB, portA)
	if err != nil {
		m.cluster.Unroute(portA, txA)
		return nil, err
	}
	chA := a.registerChannel(txA, rxA)
	chB := b.registerChannel(txB, rxB)
	if err := a.host.dev.OpenChannel(a, chA, txA, rxA); err != nil {
		return nil, err
	}
	if err := b.host.dev.OpenChannel(b, chB, txB, rxB); err != nil {
		return nil, err
	}
	return &Channel{A: a, B: b, AtoB: txA, BtoA: txB, ChanA: chA, ChanB: chB}, nil
}

// Disconnect tears a channel down: deregisters the tags, removes the
// switch routes and frees their labels for the next circuit.
func (m *Manager) Disconnect(p *sim.Proc, ch *Channel) {
	p.Charge(ch.A.host.Params.Syscall)
	p.Charge(ch.B.host.Params.Syscall)
	ch.A.host.dev.CloseChannel(ch.A, ch.ChanA)
	ch.B.host.dev.CloseChannel(ch.B, ch.ChanB)
	ch.A.closeChannel(ch.ChanA)
	ch.B.closeChannel(ch.ChanB)
	portA, _ := m.ports[ch.A.host]
	portB, _ := m.ports[ch.B.host]
	m.cluster.Unroute(portA, ch.AtoB)
	m.cluster.Unroute(portB, ch.BtoA)
}
