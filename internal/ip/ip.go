// Package ip implements the IP-over-U-Net layer of paper §7 and the
// plumbing shared by the UDP and TCP modules.
//
// Following §7.1/§7.5, a single U-Net communication channel carries all IP
// traffic between two applications; the sending side of IP collapses into
// the transport protocols (here: the transports call Conduit directly with
// an assembled header), there is no send-side fragmentation, and the MTU
// is 9 KB. The same transport modules also run over the in-kernel path
// model (internal/kernelpath), which is how the kernel curves of
// Figures 6-9 are produced from identical protocol logic — the performance
// difference is purely the execution environment, the paper's central
// point (§7.2).
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"unet/internal/sim"
)

// MTU is the IP-over-U-Net maximum datagram (§7.5: "IP over U-Net exports
// an MTU of 9Kbytes").
const MTU = 9 * 1024

// HeaderSize is the modeled IPv4 header (no options).
const HeaderSize = 20

// Protocol numbers.
const (
	ProtoUDP = 17
	ProtoTCP = 6
)

// ErrTooLong is the IP layer's one error.
var ErrTooLong = errors.New("ip: datagram exceeds MTU (no send-side fragmentation, §7.5)")

// Header is the modeled IPv4 header: the fields the experiments exercise.
type Header struct {
	Proto    uint8
	TTL      uint8
	Length   int
	Src, Dst uint32 // host addresses
}

// Encode writes the header into buf[:HeaderSize].
func (h Header) Encode(buf []byte) {
	buf[0] = 0x45
	buf[1] = 0
	binary.BigEndian.PutUint16(buf[2:], uint16(h.Length))
	binary.BigEndian.PutUint16(buf[4:], 0)
	binary.BigEndian.PutUint16(buf[6:], 0)
	buf[8] = h.TTL
	buf[9] = h.Proto
	binary.BigEndian.PutUint16(buf[10:], 0) // header checksum elided in model
	binary.BigEndian.PutUint32(buf[12:], h.Src)
	binary.BigEndian.PutUint32(buf[16:], h.Dst)
}

// ParseHeader decodes an IPv4 header.
func ParseHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, fmt.Errorf("ip: short header (%d bytes)", len(buf))
	}
	if buf[0] != 0x45 {
		return Header{}, fmt.Errorf("ip: bad version/IHL byte %#x", buf[0])
	}
	return Header{
		Proto:  buf[9],
		TTL:    buf[8],
		Length: int(binary.BigEndian.Uint16(buf[2:])),
		Src:    binary.BigEndian.Uint32(buf[12:]),
		Dst:    binary.BigEndian.Uint32(buf[16:]),
	}, nil
}

// Conduit moves whole IP datagrams between one pair of hosts. The U-Net
// implementation (UNetConduit) stages packets in a communication segment;
// the kernel implementation (internal/kernelpath) charges the traditional
// in-kernel path. Transports are single-threaded per conduit, polling like
// the rest of the U-Net software stack.
type Conduit interface {
	// Send transmits one datagram (header already assembled by the
	// caller).
	Send(p *sim.Proc, pkt []byte) error
	// Recv blocks up to timeout for the next datagram; ok is false on
	// timeout. A negative timeout blocks indefinitely (used by service
	// processes that wake only on arrivals).
	Recv(p *sim.Proc, timeout time.Duration) ([]byte, bool)
	// TryRecv polls without blocking.
	TryRecv(p *sim.Proc) ([]byte, bool)
	// MTU is the largest datagram accepted.
	MTU() int
	// Host identifies the local end (for cost charging and addresses).
	LocalAddr() uint32
	RemoteAddr() uint32
}

// InternetChecksum is the 16-bit one's-complement sum used by UDP and TCP
// (§7.6). The cost model charges 1 µs per 100 bytes separately; this
// computes the actual value so corruption is detectable end to end.
func InternetChecksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
