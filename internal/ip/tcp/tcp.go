// Package tcp implements TCP over the ip.Conduit abstraction (paper
// §7.7-7.8): reliability through cumulative acknowledgments, flow control
// through advertised receive windows, slow start and congestion avoidance,
// fast retransmit, and a retransmission timer whose granularity is a
// configuration parameter — 1 ms for U-Net TCP versus the BSD kernel's
// 500 ms pr_slow_timeout, the mismatch §7.8 calls out.
//
// The U-Net configuration (DefaultParams) uses 2048-byte segments, an
// 8 Kbyte window and disabled delayed acknowledgments: because U-Net acks
// are cheap single-cell messages, acking every segment keeps the send
// window updated "in the most timely manner possible" and an 8 K window
// already sustains maximum bandwidth (Figure 8). The kernel configuration
// (internal/kernelpath.TCPParams) differs only in these constants.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"unet/internal/ip"
	"unet/internal/sim"
)

// HeaderSize is the TCP header (no options).
const HeaderSize = 20

// Flag bits.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagACK = 1 << 4
)

// Errors returned by the TCP layer.
var (
	ErrClosed   = errors.New("tcp: connection closed")
	ErrTimeout  = errors.New("tcp: operation timed out")
	ErrState    = errors.New("tcp: operation invalid in this state")
	ErrPeerDead = errors.New("tcp: peer unresponsive, retry limit exceeded")
)

// Params is the TCP configuration and cost model.
type Params struct {
	// MSS is the maximum segment size. §7.8: "The standard configuration
	// for U-Net TCP uses 2048 byte segments" — large segments risk whole-
	// segment loss from single dropped cells (Romanow & Floyd).
	MSS int
	// WindowBytes is the receive buffer, which is also the advertised
	// window — under U-Net "a direct reflection of the buffer space at
	// the application" (§7.4).
	WindowBytes int
	// SendBufBytes bounds buffered unacknowledged+unsent data.
	SendBufBytes int
	// TimerGranularity quantizes all protocol timers (§7.8: 1 ms for
	// U-Net TCP, 500 ms for the BSD kernel's pr_slow_timeout).
	TimerGranularity time.Duration
	// DelayedAck enables the BSD delayed-acknowledgment strategy (ack
	// every second segment or after DelayedAckDelay). U-Net TCP disables
	// it (§7.8).
	DelayedAck      bool
	DelayedAckDelay time.Duration
	// WindowScale left-shifts the advertised window (RFC 1323-style),
	// the §7.8 extension needed "across wide-area links where the high
	// latencies no longer permit the use of small windows". Both ends of
	// a connection must be configured identically (the model elides the
	// SYN option negotiation).
	WindowScale uint
	// ProcTx and ProcRx are per-segment protocol processing costs.
	// Calibrated so U-Net TCP round trips start at ~157 µs (Table 3).
	ProcTx, ProcRx time.Duration
	// Checksum enables the Internet checksum (cost per byte as UDP §7.6).
	Checksum        bool
	ChecksumPerByte time.Duration
	// MaxTimeouts bounds consecutive retransmission timeouts without ack
	// progress. Past the limit the connection is declared dead and
	// blocking operations return ErrPeerDead — the backoff already made
	// the final intervals long, so retrying forever only hides the
	// failure from the application.
	MaxTimeouts int
}

// DefaultParams returns the U-Net TCP configuration (§7.8).
func DefaultParams() Params {
	return Params{
		MSS:              2048,
		WindowBytes:      8 << 10,
		SendBufBytes:     64 << 10,
		TimerGranularity: time.Millisecond,
		DelayedAck:       false,
		DelayedAckDelay:  200 * time.Millisecond,
		ProcTx:           8 * time.Microsecond,
		ProcRx:           8 * time.Microsecond,
		Checksum:         true,
		ChecksumPerByte:  10 * time.Nanosecond,
		MaxTimeouts:      12,
	}
}

// Stats counts protocol events.
type Stats struct {
	SegsOut, SegsIn     uint64
	AcksOut, AcksIn     uint64
	Retransmits         uint64
	FastRetransmits     uint64
	Timeouts            uint64
	DupAcksIn           uint64
	OutOfOrderDropped   uint64
	BadChecksum         uint64
	WindowProbes        uint64
	DelayedAcksDeferred uint64
}

// state machine.
type state int

const (
	stClosed state = iota
	stListen
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait
	stCloseWait
	stDone
)

// Conn is one TCP connection over a conduit.
type Conn struct {
	io     ip.Conduit
	params Params
	st     state

	localPort, remotePort uint16

	// Send sequence state.
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	sndWnd   int
	sendQ    []byte // data buffered from sndUna onward
	cwnd     int
	ssthresh int
	dupAcks  int

	// Round-trip estimation (Jacobson/Karels), in microseconds.
	srtt, rttvar float64
	rtSeq        uint32
	rtStart      time.Duration
	rtActive     bool
	rtoTicks     int

	retransDeadline time.Duration
	persistDeadline time.Duration

	// Liveness: consecutive retransmission timeouts without ack progress.
	consecTimeouts int
	dead           bool

	// Receive state.
	irs         uint32
	rcvNxt      uint32
	rcvBuf      []byte
	finRcvd     bool
	ackPending  int
	ackDeadline time.Duration
	lastWndAdv  int

	stats Stats
}

// New creates an unconnected TCP endpoint over conduit c.
func New(c ip.Conduit, localPort, remotePort uint16, params Params) *Conn {
	if params.MSS <= 0 {
		params.MSS = 2048
	}
	if params.WindowBytes <= 0 {
		params.WindowBytes = 8 << 10
	}
	if params.SendBufBytes <= 0 {
		params.SendBufBytes = 64 << 10
	}
	if params.TimerGranularity <= 0 {
		params.TimerGranularity = time.Millisecond
	}
	if params.DelayedAckDelay <= 0 {
		params.DelayedAckDelay = 200 * time.Millisecond
	}
	if params.MaxTimeouts <= 0 {
		params.MaxTimeouts = 12
	}
	// Before the first round-trip sample the retransmission timer is
	// conservative (BSD initializes to seconds), so a long-latency path
	// does not suffer spurious timeouts during the handshake and first
	// flight.
	initTicks := int(time.Second / params.TimerGranularity)
	if initTicks < 2 {
		initTicks = 2
	}
	return &Conn{
		io:         c,
		params:     params,
		st:         stClosed,
		localPort:  localPort,
		remotePort: remotePort,
		rtoTicks:   initTicks,
	}
}

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// State reports whether the connection is established.
func (c *Conn) Established() bool { return c.st == stEstablished || c.st == stCloseWait }

// Dead reports whether the connection exhausted its retransmission retry
// budget (MaxTimeouts consecutive timeouts without ack progress).
func (c *Conn) Dead() bool { return c.dead }

// --- sequence arithmetic ---

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// --- wire format ---

type segment struct {
	srcPort, dstPort uint16
	seq, ack         uint32
	flags            uint8
	wnd              uint16
	payload          []byte
}

func (c *Conn) emit(p *sim.Proc, seg segment) error {
	p.Charge(c.params.ProcTx)
	total := ip.HeaderSize + HeaderSize + len(seg.payload)
	pkt := make([]byte, total)
	ip.Header{
		Proto: ip.ProtoTCP, TTL: 64, Length: total,
		Src: c.io.LocalAddr(), Dst: c.io.RemoteAddr(),
	}.Encode(pkt)
	t := pkt[ip.HeaderSize:]
	binary.BigEndian.PutUint16(t[0:], seg.srcPort)
	binary.BigEndian.PutUint16(t[2:], seg.dstPort)
	binary.BigEndian.PutUint32(t[4:], seg.seq)
	binary.BigEndian.PutUint32(t[8:], seg.ack)
	t[12] = 5 << 4
	t[13] = seg.flags
	binary.BigEndian.PutUint16(t[14:], seg.wnd)
	copy(t[HeaderSize:], seg.payload)
	if c.params.Checksum {
		p.Charge(time.Duration(HeaderSize+len(seg.payload)) * c.params.ChecksumPerByte)
		binary.BigEndian.PutUint16(t[16:], ip.InternetChecksum(t))
	}
	c.stats.SegsOut++
	if seg.flags&flagACK != 0 && len(seg.payload) == 0 {
		c.stats.AcksOut++
	}
	return c.io.Send(p, pkt)
}

func parseSegment(pkt []byte) (segment, error) {
	if len(pkt) < ip.HeaderSize+HeaderSize {
		return segment{}, fmt.Errorf("tcp: short segment (%d bytes)", len(pkt))
	}
	t := pkt[ip.HeaderSize:]
	return segment{
		srcPort: binary.BigEndian.Uint16(t[0:]),
		dstPort: binary.BigEndian.Uint16(t[2:]),
		seq:     binary.BigEndian.Uint32(t[4:]),
		ack:     binary.BigEndian.Uint32(t[8:]),
		flags:   t[13],
		wnd:     binary.BigEndian.Uint16(t[14:]),
		payload: t[HeaderSize:],
	}, nil
}

// --- timers ---

// quantize rounds a deadline up to the next timer tick, modeling coarse
// kernel protocol timers (§7.8).
func (c *Conn) quantize(t time.Duration) time.Duration {
	g := c.params.TimerGranularity
	return (t + g - 1) / g * g
}

func (c *Conn) rto() time.Duration {
	return time.Duration(c.rtoTicks) * c.params.TimerGranularity
}

func (c *Conn) armRetransmit(p *sim.Proc) {
	c.retransDeadline = c.quantize(p.Now() + c.rto())
}

// --- receive window ---

func (c *Conn) rcvWindow() int {
	w := c.params.WindowBytes - len(c.rcvBuf)
	if w < 0 {
		w = 0
	}
	if max := 0xFFFF << c.params.WindowScale; w > max {
		w = max
	}
	return w
}

// wndField encodes a window for the 16-bit header field.
func (c *Conn) wndField(w int) uint16 { return uint16(w >> c.params.WindowScale) }

// wndValue decodes a received window field.
func (c *Conn) wndValue(f uint16) int { return int(f) << c.params.WindowScale }

// --- public API ---

// Dial performs the active open and blocks until established.
func (c *Conn) Dial(p *sim.Proc, timeout time.Duration) error {
	if c.st != stClosed {
		return ErrState
	}
	c.iss = 1000
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	c.st = stSynSent
	c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
		seq: c.iss, flags: flagSYN, wnd: c.wndField(c.rcvWindow())})
	c.armRetransmit(p)
	deadline := p.Now() + timeout
	for c.st != stEstablished {
		if c.dead {
			return ErrPeerDead
		}
		if p.Now() >= deadline {
			return ErrTimeout
		}
		c.pump(p, min(deadline-p.Now(), c.params.TimerGranularity))
		c.timers(p)
	}
	return nil
}

// Accept performs the passive open and blocks until established. After a
// timeout, calling it again resumes the open where it stood.
func (c *Conn) Accept(p *sim.Proc, timeout time.Duration) error {
	switch c.st {
	case stClosed:
		c.st = stListen
	case stListen, stSynRcvd:
	default:
		return ErrState
	}
	deadline := p.Now() + timeout
	for c.st != stEstablished {
		if c.dead {
			return ErrPeerDead
		}
		if p.Now() >= deadline {
			return ErrTimeout
		}
		c.pump(p, min(deadline-p.Now(), c.params.TimerGranularity))
		c.timers(p)
	}
	return nil
}

// Write queues data for transmission, blocking (and polling) while the
// send buffer is full. It returns when all of data is buffered.
func (c *Conn) Write(p *sim.Proc, data []byte) error {
	if c.st != stEstablished && c.st != stCloseWait {
		return ErrState
	}
	for len(data) > 0 {
		if c.dead {
			return ErrPeerDead
		}
		space := c.params.SendBufBytes - len(c.sendQ)
		if space <= 0 {
			c.pump(p, c.params.TimerGranularity)
			c.timers(p)
			c.output(p)
			continue
		}
		n := min(space, len(data))
		c.sendQ = append(c.sendQ, data[:n]...)
		data = data[n:]
		c.output(p)
	}
	return nil
}

// Flush blocks until every buffered byte is acknowledged.
func (c *Conn) Flush(p *sim.Proc, timeout time.Duration) error {
	deadline := p.Now() + timeout
	for len(c.sendQ) > 0 {
		if c.dead {
			return ErrPeerDead
		}
		if p.Now() >= deadline {
			return ErrTimeout
		}
		c.output(p)
		c.pump(p, min(deadline-p.Now(), c.params.TimerGranularity))
		c.timers(p)
	}
	return nil
}

// Read returns up to len(buf) bytes, blocking up to timeout. n == 0 with
// nil error indicates timeout; ErrClosed reports a drained, finished
// stream.
func (c *Conn) Read(p *sim.Proc, buf []byte, timeout time.Duration) (int, error) {
	deadline := p.Now() + timeout
	for len(c.rcvBuf) == 0 {
		if c.finRcvd {
			return 0, ErrClosed
		}
		if c.dead {
			return 0, ErrPeerDead
		}
		if p.Now() >= deadline {
			return 0, nil
		}
		c.pump(p, min(deadline-p.Now(), c.params.TimerGranularity))
		c.timers(p)
	}
	n := copy(buf, c.rcvBuf)
	c.rcvBuf = c.rcvBuf[n:]
	// Consuming data reopens window: advertise promptly once a segment's
	// worth (or a previously closed window) is available again, so the
	// sender never stalls into its retransmission timer (§7.4: the receive
	// window directly reflects application buffer space).
	if (c.lastWndAdv == 0 && c.rcvWindow() > 0) ||
		c.rcvWindow()-c.lastWndAdv >= c.params.MSS {
		c.sendAck(p)
	}
	return n, nil
}

// Close sends FIN after all data and waits for it to be acknowledged.
func (c *Conn) Close(p *sim.Proc, timeout time.Duration) error {
	if c.st != stEstablished && c.st != stCloseWait {
		return ErrState
	}
	if err := c.Flush(p, timeout); err != nil {
		return err
	}
	finSeq := c.sndNxt
	c.sndNxt++
	c.st = stFinWait
	c.emit(p, segment{srcPort: c.localPort, dstPort: c.remotePort,
		seq: finSeq, ack: c.rcvNxt, flags: flagFIN | flagACK, wnd: c.wndField(c.rcvWindow())})
	c.armRetransmit(p)
	deadline := p.Now() + timeout
	for seqLT(c.sndUna, c.sndNxt) {
		if c.dead {
			return ErrPeerDead
		}
		if p.Now() >= deadline {
			return ErrTimeout
		}
		c.pump(p, min(deadline-p.Now(), c.params.TimerGranularity))
		c.timers(p)
	}
	c.st = stDone
	return nil
}

// Poll processes pending input, timers and output opportunities.
func (c *Conn) Poll(p *sim.Proc) {
	for {
		pkt, ok := c.io.TryRecv(p)
		if !ok {
			break
		}
		c.input(p, pkt)
	}
	c.timers(p)
	c.output(p)
	c.maybeAck(p)
}

// pump waits up to d for one packet and then drains. Pending
// acknowledgments are flushed before blocking: if the application produced
// reply data since the last pump they have already piggybacked, otherwise
// the peer must not wait longer than our poll interval.
func (c *Conn) pump(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		d = c.params.TimerGranularity
	}
	c.maybeAck(p)
	// Wake for a pending delayed-ack deadline even if nothing arrives.
	if c.ackPending > 0 && c.ackDeadline > 0 {
		if until := c.ackDeadline - p.Now(); until > 0 && until < d {
			d = until
		}
	}
	if pkt, ok := c.io.Recv(p, d); ok {
		c.input(p, pkt)
		for {
			more, ok := c.io.TryRecv(p)
			if !ok {
				break
			}
			c.input(p, more)
		}
	}
	// No ack flush here: freshly pended acknowledgments wait for the next
	// poll boundary so application replies can piggyback them (§7.4).
	c.output(p)
}

// SeqLT and SeqLEQ expose the modular sequence comparisons for testing.
func SeqLT(a, b uint32) bool  { return seqLT(a, b) }
func SeqLEQ(a, b uint32) bool { return seqLEQ(a, b) }
