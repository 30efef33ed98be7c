package ip

import (
	"fmt"
	"time"

	"unet/internal/sim"
	"unet/internal/unet"
)

// UNetConduit carries IP datagrams over one U-Net channel (§7.1): packets
// are staged in the communication segment on the way out and gathered from
// receive buffers on the way in, exactly the "one copy" base-level path.
// Following the prototype, packets always use buffer descriptors (the IP
// module does not exploit the single-cell inline optimization), which is
// why the U-Net UDP round trip starts at ~138 µs rather than 65 µs
// (Figure 9, Table 3).
type UNetConduit struct {
	ep    *unet.Endpoint
	ch    unet.ChannelID
	local uint32
	rem   uint32

	stage unet.Staging
}

// stageSlots sizes the send staging region: enough MTU-sized slots that a
// buffer is never reused while its descriptor may still be queued.
const stageSlots = 72

// NewUNetConduit builds a conduit over an existing endpoint/channel pair.
// stageBase is the segment offset where the conduit may stage outgoing
// packets (it uses stageSlots × MTU bytes, which must fit the segment).
func NewUNetConduit(ep *unet.Endpoint, ch unet.ChannelID, local, remote uint32, stageBase int) (*UNetConduit, error) {
	if end, size := stageBase+stageSlots*MTU, ep.Config().SegmentSize; stageBase < 0 || end > size {
		return nil, fmt.Errorf("ip: conduit staging [%d, %d) outside the %d-byte segment", stageBase, end, size)
	}
	return &UNetConduit{
		ep:    ep,
		ch:    ch,
		local: local,
		rem:   remote,
		stage: unet.NewStaging(stageBase, stageSlots*MTU),
	}, nil
}

// LocalAddr returns the local host address.
func (c *UNetConduit) LocalAddr() uint32 { return c.local }

// RemoteAddr returns the peer host address.
func (c *UNetConduit) RemoteAddr() uint32 { return c.rem }

// MTU returns the IP-over-U-Net MTU.
func (c *UNetConduit) MTU() int { return MTU }

// Send stages pkt in the communication segment and queues a descriptor.
func (c *UNetConduit) Send(p *sim.Proc, pkt []byte) error {
	if len(pkt) > MTU {
		return ErrTooLong
	}
	off := c.stage.Next(len(pkt))
	if err := c.ep.Compose(p, off, pkt); err != nil {
		return err
	}
	return c.ep.SendBlock(p, unet.SendDesc{Channel: c.ch, Offset: off, Length: len(pkt)})
}

// take gathers a received datagram into a slice of its own: true zero-copy
// consumers would read the buffers in place (§3.4), but the socket
// semantics the transports provide require the data to outlive the buffer,
// and the transports keep what Recv hands them.
func (c *UNetConduit) take(p *sim.Proc, rd unet.RecvDesc) []byte {
	return c.ep.Gather(p, rd, make([]byte, 0, rd.Length))
}

// Recv blocks up to timeout for the next datagram; a negative timeout
// blocks until one arrives.
func (c *UNetConduit) Recv(p *sim.Proc, timeout time.Duration) ([]byte, bool) {
	if timeout < 0 {
		return c.take(p, c.ep.Recv(p)), true
	}
	rd, ok := c.ep.RecvTimeout(p, timeout)
	if !ok {
		return nil, false
	}
	return c.take(p, rd), true
}

// TryRecv polls the receive queue once.
func (c *UNetConduit) TryRecv(p *sim.Proc) ([]byte, bool) {
	rd, ok := c.ep.PollRecv(p)
	if !ok {
		return nil, false
	}
	return c.take(p, rd), true
}

// Endpoint exposes the underlying U-Net endpoint (for statistics and
// diagnostics).
func (c *UNetConduit) Endpoint() *unet.Endpoint { return c.ep }
