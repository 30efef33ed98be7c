// Package udp implements UDP over the ip.Conduit abstraction (paper
// §7.6): a port demultiplexing layer above IP plus the 16-bit Internet
// checksum. Demultiplexing uses a one-entry PCB cache per conduit, the
// optimization of Partridge & Pink the paper adopts; the checksum costs
// 1 µs per 100 bytes of data on the modeled SPARCstation-20 and can be
// switched off by applications that protect data at a higher level or
// trust the AAL5 CRC.
//
// Unlike the kernel implementation, receive buffering is bounded by the
// application's own buffer size rather than a scarce kernel socket buffer
// (§7.3) — the stack only drops when the application lets its own buffer
// fill.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"unet/internal/ip"
	"unet/internal/sim"
)

// HeaderSize is the UDP header size.
const HeaderSize = 8

// Errors returned by the UDP layer.
var (
	ErrPortInUse = errors.New("udp: port already bound")
	ErrTooLong   = errors.New("udp: datagram exceeds MTU")
)

// Params is the UDP cost model.
type Params struct {
	// ProcTx and ProcRx are the per-packet protocol processing costs
	// (header build/parse, pcb lookup). Calibrated so that U-Net UDP
	// round trips start at ~138 µs (Table 3) over the ~120 µs raw
	// multi-cell path.
	ProcTx, ProcRx time.Duration
	// PCBMiss is the extra cost of a demultiplexing miss in the one-entry
	// pcb cache (§7.6).
	PCBMiss time.Duration
	// Checksum enables the Internet checksum over header and data, at
	// ip.ChecksumPerByte.
	Checksum bool
}

// DefaultParams returns the U-Net UDP configuration.
func DefaultParams() Params {
	return Params{
		ProcTx:   10900 * time.Nanosecond,
		ProcRx:   10900 * time.Nanosecond,
		PCBMiss:  2 * time.Microsecond,
		Checksum: true,
	}
}

// Stack is the UDP instance bound to one conduit.
type Stack struct {
	conduit ip.Conduit
	params  Params
	socks   map[uint16]*Socket
	// pcbCache is the one-entry destination-port cache.
	pcbCache uint16
	stats    Stats
}

// Stats counts stack events.
type Stats struct {
	Sent, Received uint64
	BadChecksum    uint64
	NoPort         uint64
	PCBHits        uint64
	PCBMisses      uint64
}

// NewStack creates a UDP stack over a conduit.
func NewStack(c ip.Conduit, params Params) *Stack {
	return &Stack{conduit: c, params: params, socks: make(map[uint16]*Socket)}
}

// Stats returns a snapshot of the stack counters.
func (s *Stack) Stats() Stats { return s.stats }

// Socket is a bound UDP endpoint.
type Socket struct {
	stack    *Stack
	port     uint16
	buf      []dgram
	bufBytes int
	bufCap   int
	drops    uint64
}

type dgram struct {
	srcPort uint16
	data    []byte
}

// Bind allocates a socket on port with an application receive buffer of
// bufCap bytes (0 selects a generous 1 MB default — §7.3's point that the
// application's resources, not the kernel's, set the limit).
func (s *Stack) Bind(port uint16, bufCap int) (*Socket, error) {
	if _, busy := s.socks[port]; busy {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	if bufCap <= 0 {
		bufCap = 1 << 20
	}
	sk := &Socket{stack: s, port: port, bufCap: bufCap}
	s.socks[port] = sk
	return sk, nil
}

// Close releases the port.
func (sk *Socket) Close() { delete(sk.stack.socks, sk.port) }

// Drops reports datagrams discarded because the application buffer was
// full.
func (sk *Socket) Drops() uint64 { return sk.drops }

// Pending reports buffered datagrams.
func (sk *Socket) Pending() int { return len(sk.buf) }

// SendTo transmits data to dstPort on the conduit's peer.
func (sk *Socket) SendTo(p *sim.Proc, dstPort uint16, data []byte) error {
	s := sk.stack
	total := ip.HeaderSize + HeaderSize + len(data)
	if total > s.conduit.MTU() {
		return ErrTooLong
	}
	p.Charge(s.params.ProcTx)
	pkt := make([]byte, total)
	ip.Header{
		Proto: ip.ProtoUDP, TTL: 64, Length: total,
		Src: s.conduit.LocalAddr(), Dst: s.conduit.RemoteAddr(),
	}.Encode(pkt)
	u := pkt[ip.HeaderSize:]
	binary.BigEndian.PutUint16(u[0:], sk.port)
	binary.BigEndian.PutUint16(u[2:], dstPort)
	binary.BigEndian.PutUint16(u[4:], uint16(HeaderSize+len(data)))
	copy(u[HeaderSize:], data)
	if s.params.Checksum {
		p.Charge(time.Duration(HeaderSize+len(data)) * ip.ChecksumPerByte)
		binary.BigEndian.PutUint16(u[6:], ip.InternetChecksum(u[HeaderSize:]))
	}
	s.stats.Sent++
	return s.conduit.Send(p, pkt)
}

// pump processes one arrival from the conduit, delivering to the bound
// socket. Returns false on timeout.
func (s *Stack) pump(p *sim.Proc, timeout time.Duration) bool {
	pkt, ok := s.conduit.Recv(p, timeout)
	if !ok {
		return false
	}
	s.deliver(p, pkt)
	return true
}

func (s *Stack) deliver(p *sim.Proc, pkt []byte) {
	hdr, err := ip.ParseHeader(pkt)
	if err != nil || hdr.Proto != ip.ProtoUDP || len(pkt) < ip.HeaderSize+HeaderSize {
		return
	}
	p.Charge(s.params.ProcRx)
	u := pkt[ip.HeaderSize:]
	srcPort := binary.BigEndian.Uint16(u[0:])
	dstPort := binary.BigEndian.Uint16(u[2:])
	if dstPort == s.pcbCache {
		s.stats.PCBHits++
	} else {
		s.stats.PCBMisses++
		p.Charge(s.params.PCBMiss)
		s.pcbCache = dstPort
	}
	if s.params.Checksum {
		want := binary.BigEndian.Uint16(u[6:])
		if want != 0 {
			p.Charge(time.Duration(len(u)-6) * ip.ChecksumPerByte)
			binary.BigEndian.PutUint16(u[6:], 0)
			if got := ip.InternetChecksum(u[HeaderSize:]); got != want {
				s.stats.BadChecksum++
				return
			}
		}
	}
	sk, ok := s.socks[dstPort]
	if !ok {
		s.stats.NoPort++
		return
	}
	data := u[HeaderSize:]
	if sk.bufBytes+len(data) > sk.bufCap {
		sk.drops++
		return
	}
	sk.buf = append(sk.buf, dgram{srcPort: srcPort, data: data})
	sk.bufBytes += len(data)
	s.stats.Received++
}

// RecvFrom blocks (pumping the conduit) up to timeout for a datagram on
// this socket.
func (sk *Socket) RecvFrom(p *sim.Proc, timeout time.Duration) (data []byte, srcPort uint16, ok bool) {
	deadline := p.Now() + timeout
	for len(sk.buf) == 0 {
		remain := deadline - p.Now()
		if remain <= 0 {
			return nil, 0, false
		}
		sk.stack.pump(p, remain)
	}
	d := sk.buf[0]
	sk.buf = sk.buf[1:]
	sk.bufBytes -= len(d.data)
	return d.data, d.srcPort, true
}
