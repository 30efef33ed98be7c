package ip

import (
	"fmt"
	"time"

	"unet/internal/sim"
)

// FlowMux implements the interoperability plan of §7.1: instead of one
// U-Net channel per application pair, a single dedicated IP-over-ATM
// channel carries all IP traffic, and "an additional level of
// demultiplexing ... based on the [flow-id, source address] tag" dispatches
// arrivals to per-flow conduits. "Packets for which the tag does not
// resolve to a local U-Net destination will be transferred to the kernel
// communication endpoint for generalized processing" — the fallback
// handler here.
//
// The flow identifier travels in the 24-bit field the model's IP header
// reserves for it (the IPv6 flow-label analogue, §7.1 targets IPv6).
type FlowMux struct {
	base     Conduit
	flows    map[flowKey]*FlowConduit
	fallback func(p *sim.Proc, pkt []byte)
	stats    FlowMuxStats
}

// FlowMuxStats counts demultiplexer events.
type FlowMuxStats struct {
	Dispatched uint64
	Fallback   uint64
}

type flowKey struct {
	flow uint32
	src  uint32
}

// flowLabelOffset places the 24-bit label in the header's
// identification/fragment bytes (unused by the model).
const flowLabelOffset = 4

// SetFlowLabel stamps a 24-bit flow label into an assembled IP packet.
func SetFlowLabel(pkt []byte, flow uint32) {
	if len(pkt) < HeaderSize {
		return
	}
	pkt[flowLabelOffset] = byte(flow >> 16)
	pkt[flowLabelOffset+1] = byte(flow >> 8)
	pkt[flowLabelOffset+2] = byte(flow)
}

// FlowLabel reads a packet's 24-bit flow label.
func FlowLabel(pkt []byte) uint32 {
	if len(pkt) < HeaderSize {
		return 0
	}
	return uint32(pkt[flowLabelOffset])<<16 |
		uint32(pkt[flowLabelOffset+1])<<8 |
		uint32(pkt[flowLabelOffset+2])
}

// NewFlowMux wraps the shared IP channel.
func NewFlowMux(base Conduit) *FlowMux {
	return &FlowMux{base: base, flows: make(map[flowKey]*FlowConduit)}
}

// Stats returns a snapshot of the demultiplexer counters.
func (m *FlowMux) Stats() FlowMuxStats { return m.stats }

// SetFallback installs the kernel-endpoint handler for unresolved tags.
func (m *FlowMux) SetFallback(fn func(p *sim.Proc, pkt []byte)) { m.fallback = fn }

// Open registers flow id `flow` from the peer and returns its conduit.
func (m *FlowMux) Open(flow uint32) (*FlowConduit, error) {
	key := flowKey{flow: flow, src: m.base.RemoteAddr()}
	if _, busy := m.flows[key]; busy {
		return nil, fmt.Errorf("ip: flow %d already open", flow)
	}
	fc := &FlowConduit{mux: m, flow: flow}
	m.flows[key] = fc
	return fc, nil
}

// Close removes a flow registration.
func (m *FlowMux) Close(fc *FlowConduit) {
	delete(m.flows, flowKey{flow: fc.flow, src: m.base.RemoteAddr()})
}

// pump moves one packet from the base channel to its flow (or the
// fallback). Returns false on timeout.
func (m *FlowMux) pump(p *sim.Proc, timeout time.Duration) bool {
	pkt, ok := m.base.Recv(p, timeout)
	if !ok {
		return false
	}
	m.dispatch(p, pkt)
	return true
}

func (m *FlowMux) tryPump(p *sim.Proc) bool {
	pkt, ok := m.base.TryRecv(p)
	if !ok {
		return false
	}
	m.dispatch(p, pkt)
	return true
}

func (m *FlowMux) dispatch(p *sim.Proc, pkt []byte) {
	hdr, err := ParseHeader(pkt)
	if err != nil {
		return
	}
	key := flowKey{flow: FlowLabel(pkt), src: hdr.Src}
	if fc, ok := m.flows[key]; ok {
		m.stats.Dispatched++
		fc.rq = append(fc.rq, pkt)
		return
	}
	m.stats.Fallback++
	if m.fallback != nil {
		m.fallback(p, pkt)
	}
}

// FlowConduit is one flow's view of the shared channel. It implements
// Conduit, so UDP stacks and TCP connections run over it unchanged —
// several of them can now share a single pair of U-Net endpoints.
type FlowConduit struct {
	mux  *FlowMux
	flow uint32
	rq   [][]byte
}

// LocalAddr returns the shared channel's local address.
func (fc *FlowConduit) LocalAddr() uint32 { return fc.mux.base.LocalAddr() }

// RemoteAddr returns the shared channel's peer address.
func (fc *FlowConduit) RemoteAddr() uint32 { return fc.mux.base.RemoteAddr() }

// MTU returns the shared channel's MTU.
func (fc *FlowConduit) MTU() int { return fc.mux.base.MTU() }

// Send stamps the flow label and transmits on the shared channel.
func (fc *FlowConduit) Send(p *sim.Proc, pkt []byte) error {
	SetFlowLabel(pkt, fc.flow)
	return fc.mux.base.Send(p, pkt)
}

// Recv blocks up to timeout for the next packet on this flow, pumping the
// shared channel (arrivals for other flows are queued on their conduits).
func (fc *FlowConduit) Recv(p *sim.Proc, timeout time.Duration) ([]byte, bool) {
	var deadline time.Duration = -1
	if timeout >= 0 {
		deadline = p.Now() + timeout
	}
	for len(fc.rq) == 0 {
		remain := time.Duration(-1)
		if deadline >= 0 {
			remain = deadline - p.Now()
			if remain <= 0 {
				return nil, false
			}
		}
		if !fc.mux.pump(p, remain) {
			return nil, false
		}
	}
	pkt := fc.rq[0]
	fc.rq = fc.rq[1:]
	return pkt, true
}

// TryRecv polls this flow without blocking (draining whatever is already
// queued on the shared channel first).
func (fc *FlowConduit) TryRecv(p *sim.Proc) ([]byte, bool) {
	for len(fc.rq) == 0 {
		if !fc.mux.tryPump(p) {
			return nil, false
		}
	}
	pkt := fc.rq[0]
	fc.rq = fc.rq[1:]
	return pkt, true
}

var _ Conduit = (*FlowConduit)(nil)
