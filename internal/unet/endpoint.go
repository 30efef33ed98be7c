package unet

import (
	"fmt"
	"time"

	"unet/internal/atm"
	"unet/internal/sim"
)

// EndpointConfig sizes an endpoint's resources. The base-level architecture
// treats communication segments as a limited resource with a bounded size
// (§3.4); the kernel enforces Limits against these values.
type EndpointConfig struct {
	// SegmentSize is the communication segment size in bytes.
	SegmentSize int
	// RecvBufSize is the fixed size of receive buffers provided through
	// the free queue. UAM uses 4160-byte buffers (§5.2).
	RecvBufSize int
	// SendQueueCap, RecvQueueCap and FreeQueueCap bound the three message
	// queues.
	SendQueueCap int
	RecvQueueCap int
	FreeQueueCap int
	// DirectAccess permits senders to deposit data at offsets in this
	// segment (direct-access U-Net, §3.6).
	DirectAccess bool
}

// DefaultEndpointConfig returns the sizing used by the prototype layers.
func DefaultEndpointConfig() EndpointConfig {
	return EndpointConfig{
		SegmentSize:  256 << 10,
		RecvBufSize:  4160,
		SendQueueCap: 64,
		RecvQueueCap: 64,
		FreeQueueCap: 256,
	}
}

func (c *EndpointConfig) fillDefaults() {
	d := DefaultEndpointConfig()
	if c.SegmentSize <= 0 {
		c.SegmentSize = d.SegmentSize
	}
	if c.RecvBufSize <= 0 {
		c.RecvBufSize = d.RecvBufSize
	}
	if c.SendQueueCap <= 0 {
		c.SendQueueCap = d.SendQueueCap
	}
	if c.RecvQueueCap <= 0 {
		c.RecvQueueCap = d.RecvQueueCap
	}
	if c.FreeQueueCap <= 0 {
		c.FreeQueueCap = d.FreeQueueCap
	}
}

// UpcallMode selects the receive-queue condition that triggers the upcall
// (§3.1): non-empty for event-driven reception, almost-full to react before
// the queue overflows.
type UpcallMode int

// Upcall trigger conditions.
const (
	UpcallNone UpcallMode = iota
	UpcallNonEmpty
	UpcallAlmostFull
)

type chanInfo struct {
	tx, rx atm.VCI
	open   bool
}

// Endpoint is an application's handle into the network (§3.1): a
// communication segment plus send, receive and free queues. All methods
// must be called from simulation context; methods taking a *sim.Proc
// charge that process the host CPU cost of the operation (a nil proc
// performs the operation free of charge, for set-up code).
type Endpoint struct {
	host  *Host
	owner *Process
	cfg   EndpointConfig
	seg   Backing // cfg.SegmentSize bytes, resident page by page as they are written

	sendQ *sim.FIFO[SendDesc]
	recvQ *sim.FIFO[RecvDesc]
	freeQ *sim.FIFO[int]

	chans []chanInfo

	txSpace sim.Cond // signaled when the NI consumes a send descriptor

	upcall         func()
	upcallMode     UpcallMode
	upcallSignal   bool
	upcallDisabled bool
	upcallPending  bool

	stats  EndpointStats
	closed bool
}

func newEndpoint(owner *Process, cfg EndpointConfig) *Endpoint {
	return &Endpoint{
		host:  owner.host,
		owner: owner,
		cfg:   cfg,
		seg:   NewBacking(cfg.SegmentSize),
		sendQ: sim.NewFIFO[SendDesc](cfg.SendQueueCap),
		recvQ: sim.NewFIFO[RecvDesc](cfg.RecvQueueCap),
		freeQ: sim.NewFIFO[int](cfg.FreeQueueCap),
	}
}

// Host returns the endpoint's host.
func (ep *Endpoint) Host() *Host { return ep.host }

// Config returns the endpoint's configuration.
func (ep *Endpoint) Config() EndpointConfig { return ep.cfg }

// Stats returns a snapshot of the endpoint counters.
func (ep *Endpoint) Stats() EndpointStats { return ep.stats }

func (ep *Endpoint) checkRange(off, n int) error {
	if !ep.seg.Contains(off, n) {
		return ErrBadOffset
	}
	return nil
}

// Compose copies data into the segment at off, charging the copy cost.
// This is the application-to-segment copy that base-level U-Net ("zero
// copy" in the vernacular, §3.3) cannot avoid. With a nil p it is the free
// form: a few header bytes stored straight into mapped memory, which the
// cost model does not bill as a copy.
func (ep *Endpoint) Compose(p *sim.Proc, off int, data []byte) error {
	if err := ep.checkRange(off, len(data)); err != nil {
		return err
	}
	p.Charge(CopyCost(len(data)))
	ep.seg.Write(off, data)
	return nil
}

// ReadBuf copies len(buf) bytes out of the segment at off into buf,
// charging the copy cost. It is the step Gather repeats per buffer.
func (ep *Endpoint) ReadBuf(p *sim.Proc, off int, buf []byte) error {
	if err := ep.checkRange(off, len(buf)); err != nil {
		return err
	}
	p.Charge(CopyCost(len(buf)))
	for len(buf) > 0 {
		n := copy(buf, ep.seg.Piece(off, len(buf)))
		off, buf = off+n, buf[n:]
	}
	return nil
}

// Send pushes a message descriptor onto the send queue (§3.1). It
// validates the channel and buffer bounds, charges the descriptor-push
// cost, and returns ErrSendQueueFull when the NI is backed up, the
// back-pressure the architecture specifies.
func (ep *Endpoint) Send(p *sim.Proc, d SendDesc) error {
	if ep.closed {
		return ErrClosed
	}
	dev := ep.host.dev
	if dev == nil {
		return ErrNoDevice
	}
	if int(d.Channel) < 0 || int(d.Channel) >= len(ep.chans) || !ep.chans[d.Channel].open {
		return ErrNoChannel
	}
	if d.Inline != nil {
		d.Length = len(d.Inline)
		if d.Length > dev.SingleCellMax() {
			// Inline data too large for the fast path: stage it in the
			// segment? No — the architecture makes buffer management the
			// process's job, so reject rather than hide a copy.
			return ErrTooLong
		}
	} else if err := ep.checkRange(d.Offset, d.Length); err != nil {
		return err
	}
	if d.Length > dev.MTU() || d.Direct && d.Length > dev.MTU()-DirectHeaderSize {
		return ErrTooLong
	}
	p.Charge(descriptorPush)
	if !ep.sendQ.TryPut(d) {
		return ErrSendQueueFull
	}
	dev.KickTx(ep)
	return nil
}

// SendBlock is Send that waits out back-pressure instead of failing.
func (ep *Endpoint) SendBlock(p *sim.Proc, d SendDesc) error {
	for {
		err := ep.Send(p, d)
		if err != ErrSendQueueFull {
			return err
		}
		p.Wait(&ep.txSpace)
	}
}

// WaitSent blocks until the NI has popped the first n descriptors pushed on
// this endpoint (Stats().Sent >= n), after which the bytes they point at may
// be staged again.
func (ep *Endpoint) WaitSent(p *sim.Proc, n uint64) {
	for ep.stats.Sent < n {
		p.Wait(&ep.txSpace)
	}
}

// DescAt describes the n-byte message staged in the segment at off: inline,
// its bytes aliasing the segment, when the device's single-cell fast path
// takes it (§3.4), by offset and length otherwise — always the latter on a
// device without the fast path. The bytes must stay put until the NI pops
// the descriptor: a Staging region sized past the send queue sees to that,
// and a slot staged again while descriptors may still point at it waits
// for them with WaitSent.
// A range outside the segment panics.
func (ep *Endpoint) DescAt(ch ChannelID, off, n int) SendDesc {
	if n <= ep.host.dev.SingleCellMax() {
		return SendDesc{Channel: ch, Inline: ep.seg.Writable(off, n)}
	}
	return SendDesc{Channel: ch, Offset: off, Length: n}
}

// Staging hands out send staging space from one region of the segment in
// rotation: each message takes the bytes after the previous one, and a
// message that would run past the end starts over at the base. Nothing
// tracks when a slot is free again — the owner sizes the region so that a
// slot comes round only after its descriptor has left the send queue (more
// slots than the queue holds, or send-queue capacity times the largest
// message).
type Staging struct{ base, size, next int }

// NewStaging returns the allocator for segment bytes [base, base+size).
func NewStaging(base, size int) Staging { return Staging{base: base, size: size} }

// Next returns the segment offset for an n-byte message. A message larger
// than the whole region is a sizing bug in the owner, not a run-time
// condition: writing it at the base would run into whatever lies behind.
func (s *Staging) Next(n int) int {
	if n > s.size {
		panic(fmt.Sprintf("unet: %d-byte message staged in a %d-byte region", n, s.size))
	}
	if s.next+n > s.size {
		s.next = 0
	}
	off := s.base + s.next
	s.next += n
	return off
}

// PollRecv checks the receive queue once (§3.1 polling reception),
// charging the poll cost.
func (ep *Endpoint) PollRecv(p *sim.Proc) (RecvDesc, bool) {
	p.Charge(pollCost)
	return ep.recvQ.TryGet()
}

// RecvPending reports how many descriptors wait in the receive queue,
// without charging a poll (used by layers that just drained it).
func (ep *Endpoint) RecvPending() int { return ep.recvQ.Len() }

// Recv blocks until a message descriptor is available. It models the
// polling receive loop the paper's measurements use (§4.2.3): the process
// is idle until arrival and pays one poll to pick the descriptor up. For
// the cost of UNIX-signal-driven reception use SetUpcall with signal=true.
func (ep *Endpoint) Recv(p *sim.Proc) RecvDesc {
	for {
		if rd, ok := ep.recvQ.TryGet(); ok {
			return rd
		}
		p.Wait(ep.recvQ.NotEmpty())
		p.Charge(pollCost)
	}
}

// RecvTimeout is Recv with a deadline; ok is false on timeout.
func (ep *Endpoint) RecvTimeout(p *sim.Proc, d time.Duration) (RecvDesc, bool) {
	deadline := p.Now() + d
	for {
		if rd, ok := ep.recvQ.TryGet(); ok {
			return rd, true
		}
		left := deadline - p.Now()
		if left <= 0 {
			return RecvDesc{}, false
		}
		if p.WaitTimeout(ep.recvQ.NotEmpty(), left) {
			p.Charge(pollCost)
		}
	}
}

// Gather brings a received message home: it copies the data out of the
// descriptor (single-cell arrivals) or out of its receive buffers into
// dst[:0], growing dst as needed, hands every buffer back to the NI through
// the free queue and returns the descriptor's pooled memory (DESIGN.md
// §10). p is charged the copy and then the free-queue push, buffer by
// buffer; a nil p gathers free of charge. rd must not be used afterwards.
// A direct-access deposit (§3.6) has no buffers and is already where the
// sender put it, so Gather returns it empty.
//
// The receive half of the base-level buffer discipline (§3.4) lives here
// and in Release and nowhere else: layers that keep the data call Gather,
// layers that only count it call Release.
func (ep *Endpoint) Gather(p *sim.Proc, rd RecvDesc, dst []byte) []byte {
	if rd.Inline != nil {
		p.Charge(CopyCost(len(rd.Inline)))
		dst = append(dst[:0], rd.Inline...)
		ep.consume(rd)
		return dst
	}
	for cap(dst) < rd.Length {
		dst = append(dst[:cap(dst)], 0) // append's amortized growth, up to the high-water length
	}
	dst = dst[:rd.Length]
	n := 0
	for _, off := range rd.Buffers {
		chunk := min(rd.Length-n, ep.cfg.RecvBufSize)
		if err := ep.ReadBuf(p, off, dst[n:n+chunk]); err != nil {
			panic(err)
		}
		n += chunk
		if err := ep.PushFree(p, off); err != nil {
			panic(err)
		}
	}
	ep.consume(rd)
	return dst[:n]
}

// Release is Gather without the copy, for a message whose data is not
// wanted (or was read in place): the buffers go back on the free queue,
// each push charged to p, and the descriptor's pooled memory to the NI.
func (ep *Endpoint) Release(p *sim.Proc, rd RecvDesc) {
	for _, off := range rd.Buffers {
		if err := ep.PushFree(p, off); err != nil {
			panic(err)
		}
	}
	ep.consume(rd)
}

// consume returns a descriptor's NI-owned memory — the Inline slab of a
// single-cell arrival, the Buffers list of a buffered one — to the device's
// pools. It is free of virtual cost: the memory is a simulator artifact,
// not a modeled resource.
func (ep *Endpoint) consume(rd RecvDesc) {
	if rd.Inline != nil {
		ep.host.dev.RecycleInline(rd.Inline)
	}
	if rd.Buffers != nil {
		ep.host.dev.RecycleOffsets(rd.Buffers)
	}
}

// PushFree returns a receive buffer at segment offset off to the NI
// through the free queue (§3.1). Buffers must lie in the segment and are
// RecvBufSize bytes long. Pushing one makes nothing resident: its pages
// are allocated by the NI's DMA that first fills them.
func (ep *Endpoint) PushFree(p *sim.Proc, off int) error {
	if err := ep.checkRange(off, ep.cfg.RecvBufSize); err != nil {
		return err
	}
	p.Charge(FreePush)
	if !ep.freeQ.TryPut(off) {
		return ErrLimit
	}
	return nil
}

// ProvideRecvBuffers carves n receive buffers from the segment starting at
// base and pushes them all onto the free queue. Convenience for set-up
// code; returns the offset just past the last buffer. It only pushes
// offsets: no byte of the carve is resident until the NI writes it.
func (ep *Endpoint) ProvideRecvBuffers(p *sim.Proc, base, n int) (int, error) {
	off := base
	for i := 0; i < n; i++ {
		if err := ep.PushFree(p, off); err != nil {
			return off, err
		}
		off += ep.cfg.RecvBufSize
	}
	return off, nil
}

// SetUpcall registers fn to run when the receive queue satisfies mode
// (§3.1). When signal is true the dispatch charges the UNIX-signal
// delivery latency; otherwise it models a cheap user-level interrupt.
// U-Net does not specify the upcall's nature, so fn runs in engine context
// and typically signals or spawns a handler process.
func (ep *Endpoint) SetUpcall(mode UpcallMode, signal bool, fn func()) {
	ep.upcallMode = mode
	ep.upcallSignal = signal
	ep.upcall = fn
}

// DisableUpcalls enters a critical section atomic w.r.t. message reception
// (§3.1). Cheap: it is a flag write.
func (ep *Endpoint) DisableUpcalls() { ep.upcallDisabled = true }

// EnableUpcalls leaves the critical section, firing a deferred upcall if
// the trigger condition occurred meanwhile.
func (ep *Endpoint) EnableUpcalls() {
	ep.upcallDisabled = false
	if ep.upcallPending {
		ep.upcallPending = false
		ep.fireUpcall()
	}
}

func (ep *Endpoint) fireUpcall() {
	if ep.upcall == nil || ep.upcallMode == UpcallNone {
		return
	}
	if ep.upcallDisabled {
		ep.upcallPending = true
		return
	}
	delay := time.Duration(0)
	if ep.upcallSignal {
		delay = SignalDelivery
	}
	fn := ep.upcall
	ep.host.Eng.After(delay, fn)
}

func (ep *Endpoint) maybeUpcall() {
	switch ep.upcallMode {
	case UpcallNonEmpty:
		if ep.recvQ.Len() == 1 {
			ep.fireUpcall()
		}
	case UpcallAlmostFull:
		if ep.recvQ.Len() >= ep.cfg.RecvQueueCap-1 {
			ep.fireUpcall()
		}
	}
}

// registerChannel is called by the Manager during channel set-up.
func (ep *Endpoint) registerChannel(tx, rx atm.VCI) ChannelID {
	ep.chans = append(ep.chans, chanInfo{tx: tx, rx: rx, open: true})
	return ChannelID(len(ep.chans) - 1)
}

func (ep *Endpoint) closeChannel(ch ChannelID) {
	if int(ch) >= 0 && int(ch) < len(ep.chans) {
		ep.chans[ch].open = false
	}
}

// ChannelVCIs reports the tag pair of a registered channel.
func (ep *Endpoint) ChannelVCIs(ch ChannelID) (tx, rx atm.VCI, ok bool) {
	if int(ch) < 0 || int(ch) >= len(ep.chans) || !ep.chans[ch].open {
		return 0, 0, false
	}
	ci := ep.chans[ch]
	return ci.tx, ci.rx, true
}

// --- Device-facing interface (the NI side of the queues) ---

// DevPopSend removes the next send descriptor for the NI, releasing one
// unit of back-pressure.
func (ep *Endpoint) DevPopSend() (SendDesc, bool) {
	d, ok := ep.sendQ.TryGet()
	if ok {
		ep.stats.Sent++
		ep.txSpace.Broadcast()
	}
	return d, ok
}

// DevSendPending reports whether send descriptors are waiting.
func (ep *Endpoint) DevSendPending() bool { return ep.sendQ.Len() > 0 }

// DevPopFree takes a receive buffer offset off the free queue.
func (ep *Endpoint) DevPopFree() (int, bool) { return ep.freeQ.TryGet() }

// DevDeliver pushes an arrival descriptor onto the receive queue,
// accounting a drop when the queue is full, and triggers the upcall
// machinery.
func (ep *Endpoint) DevDeliver(rd RecvDesc) bool {
	if !ep.recvQ.TryPut(rd) {
		ep.stats.DroppedQueueFull++
		return false
	}
	ep.stats.Received++
	ep.maybeUpcall()
	return true
}

// DevDropNoBuffer records an arrival discarded for want of a free buffer.
func (ep *Endpoint) DevDropNoBuffer() { ep.stats.DroppedNoBuffer++ }

// DevDropReassembly records an arrival discarded by AAL5 validation.
func (ep *Endpoint) DevDropReassembly() { ep.stats.DroppedReassembly++ }

// DevWriteSegment is the NI's DMA into the communication segment. Bounds
// are clipped: hardware writes through a validated map, so out-of-range
// indicates a model bug and panics.
func (ep *Endpoint) DevWriteSegment(off int, data []byte) { ep.seg.Write(off, data) }

// DevSegment is the communication segment the NI reads a message out of in
// place (Backing.Piece), the DMA of §4.2.2 with no staging buffer.
func (ep *Endpoint) DevSegment() *Backing { return &ep.seg }
