package testbed

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"unet/internal/sim"
	"unet/internal/unet"
)

// Messenger is one side of a two-party conversation, seen by message size
// only: a raw or kernel-emulated U-Net endpoint, a UAM node, a UDP socket or
// a TCP connection. Echo and Stream are the only loops that drive one, so
// every layer runs the same round trip and the same stream (the paper's §7
// method). An adapter copies nothing its layer would not, and arms no timer
// the driver did not ask for: a negative timeout blocks.
type Messenger interface {
	// Open readies the active side: TCP's handshake, a UAM warm-up.
	Open(p *sim.Proc) error
	Send(p *sim.Proc, n int) error
	// Recv returns the bytes of one message, or of one read of a byte
	// stream; ErrTimeout if none came within timeout.
	Recv(p *sim.Proc, timeout time.Duration) (int, error)
	// Close waits until everything sent is acknowledged, or returns
	// ErrUnconfirmed at once on a transport without acknowledgments.
	Close(p *sim.Proc) error
}

var (
	ErrTimeout     = errors.New("testbed: nothing arrived before the timeout")
	ErrUnconfirmed = errors.New("testbed: the transport does not acknowledge")
	errUnfinished  = errors.New("testbed: the exchange did not finish")
)

// Connectionless is the Open and Close of a transport with no handshake and
// no acknowledgments.
type Connectionless struct{}

func (Connectionless) Open(*sim.Proc) error  { return nil }
func (Connectionless) Close(*sim.Proc) error { return ErrUnconfirmed }

// Raw is a Messenger over one channel of a U-Net endpoint. Send posts the n
// bytes staged at Stage, inline when they fit a cell or, with DstOffset set,
// deposited at that offset of the peer's segment (§3.6). Recv releases each
// arrival unread or, with Gather, copies it out as an application that keeps
// the data must.
type Raw struct {
	Connectionless
	Ep               *unet.Endpoint
	Ch               unet.ChannelID
	Stage, DstOffset int
	Gather           bool
	data             []byte
}

func (m *Raw) Send(p *sim.Proc, n int) error {
	d := m.Ep.DescAt(m.Ch, m.Stage, n)
	if m.DstOffset > 0 {
		d = unet.SendDesc{Channel: m.Ch, Offset: m.Stage, Length: n, Direct: true, DstOffset: m.DstOffset}
	}
	return m.Ep.SendBlock(p, d)
}

func (m *Raw) Recv(p *sim.Proc, timeout time.Duration) (int, error) {
	rd, ok := unet.RecvDesc{}, true
	if timeout < 0 {
		rd = m.Ep.Recv(p)
	} else if rd, ok = m.Ep.RecvTimeout(p, timeout); !ok {
		return 0, ErrTimeout
	}
	if m.Gather {
		m.data = m.Ep.Gather(p, rd, m.data)
	} else {
		m.Ep.Release(p, rd)
	}
	return rd.Length, nil
}

// The drivers run a's process on host 0 and b's, spawned first, on host 1.
// A Recv of b's that times out is no reason to stop while a is still at
// work: the flag that says a is done crosses hosts (and shards'
// goroutines), and flips only after a's last measured step, so it never
// perturbs timing.

// Echo bounces rounds+1 size-byte messages off b, which replies to each,
// and returns the mean round trip of all but the first; a awaits each reply
// up to timeout. An exchange that fails or does not finish is an error.
func Echo(tb *Testbed, a, b Messenger, size, rounds int, timeout time.Duration) (time.Duration, error) {
	var start, end time.Duration
	err, done := errUnfinished, new(atomic.Bool)
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for served := 0; served <= rounds; served++ {
			err := recvMsg(p, b, size, timeout)
			for errors.Is(err, ErrTimeout) && !done.Load() {
				err = recvMsg(p, b, size, timeout)
			}
			if err != nil || b.Send(p, size) != nil {
				return
			}
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		defer done.Store(true)
		if e := a.Open(p); e != nil {
			err = e
			return
		}
		for i := 0; i <= rounds; i++ {
			if i == 1 {
				start = p.Now()
			}
			if e := a.Send(p, size); e != nil {
				err = e
				return
			}
			if e := recvMsg(p, a, size, timeout); e != nil {
				err = e
				return
			}
		}
		end, err = p.Now(), nil
	})
	tb.Eng.Run()
	if err != nil {
		return 0, err
	}
	return (end - start) / time.Duration(rounds), nil
}

// recvMsg receives size bytes: one message, or as many reads as a byte
// stream takes.
func recvMsg(p *sim.Proc, m Messenger, size int, timeout time.Duration) error {
	for got := 0; ; {
		n, err := m.Recv(p, timeout)
		if err != nil {
			return err
		}
		if got += n; got >= size {
			return nil
		}
	}
}

// Flow is what Stream saw, up to the arrival that brought the stream in.
type Flow struct {
	Start, End  time.Duration // a's, after Open and after Close
	First, Last time.Duration // b's first arrival, and the one that brought the stream in
	Delivered   int           // b's Recvs that returned data
	Bytes       int           // what they returned
}

// Stream sends count size-byte messages from a to b as fast as a's
// transport takes them, then closes. The stream is in once b has had count
// deliveries and count*size bytes; b receives until a is done and either
// the stream is in or a Recv times out. The stream fails if a does, if b's
// transport does, or if a cannot confirm delivery and the stream never
// came in.
func Stream(tb *Testbed, a, b Messenger, count, size int, timeout time.Duration) (Flow, error) {
	var f Flow
	in := func() bool { return f.Delivered >= count && f.Bytes >= count*size }
	txErr, done := errUnfinished, new(atomic.Bool)
	var rxErr error
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for {
			n, err := b.Recv(p, timeout)
			if err == nil && !in() {
				if f.Delivered == 0 {
					f.First = p.Now()
				}
				f.Delivered, f.Bytes, f.Last = f.Delivered+1, f.Bytes+n, p.Now()
			}
			if err != nil && !errors.Is(err, ErrTimeout) {
				rxErr = err
				return
			}
			if done.Load() && (err != nil || in()) {
				return
			}
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		defer done.Store(true)
		err := a.Open(p)
		f.Start = p.Now()
		for i := 0; i < count && err == nil; i++ {
			err = a.Send(p, size)
		}
		if err == nil {
			err = a.Close(p)
		}
		f.End, txErr = p.Now(), err
	})
	tb.Eng.Run()
	if errors.Is(txErr, ErrUnconfirmed) {
		txErr = nil
		if !in() {
			txErr = fmt.Errorf("testbed: %d of %d messages arrived", f.Delivered, count)
		}
	}
	return f, errors.Join(txErr, rxErr)
}

// Raw returns the pair's endpoints as messengers, A's first.
func (pr *Pair) Raw() (a, b *Raw) {
	return &Raw{Ep: pr.EpA, Ch: pr.ChA, Stage: pr.StageA}, &Raw{Ep: pr.EpB, Ch: pr.ChB, Stage: pr.StageB}
}

// PingPong measures the mean round-trip time of size-byte messages echoed
// between the pair's endpoints (on hosts 0 and 1), the experiment behind
// Figure 3's Raw U-Net curve. One warm-up round precedes measurement; an
// exchange a lost message leaves unfinished measures 0.
func (pr *Pair) PingPong(rounds, size int) time.Duration {
	a, b := pr.Raw()
	rtt, _ := Echo(pr.TB, a, b, size, rounds, -1)
	return rtt
}

// StreamResult reports a one-way streaming experiment.
type StreamResult struct {
	Messages  int
	Bytes     int
	Elapsed   time.Duration
	Delivered int
	Dropped   uint64
}

// MBps is the receiver-observed payload bandwidth in megabytes per second.
func (r StreamResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// Stream blasts count size-byte messages from endpoint A to endpoint B (on
// hosts 0 and 1) as fast as the send queue accepts them and reports the
// receiver-observed bandwidth — the experiment behind Figure 4's Raw U-Net
// curve. Nothing recovers a lost message; Delivered and Dropped count them.
func (pr *Pair) Stream(count, size int) StreamResult {
	a, b := pr.Raw()
	f, _ := Stream(pr.TB, a, b, count, size, -1)
	st := pr.EpB.Stats()
	return StreamResult{
		Messages:  count,
		Delivered: f.Delivered,
		// The first arrival opens the window; its own bytes are excluded so
		// that Bytes/Elapsed is unbiased.
		Bytes:   max(f.Delivered-1, 0) * size,
		Elapsed: f.Last - f.First,
		Dropped: st.DroppedNoBuffer + st.DroppedQueueFull + st.DroppedReassembly,
	}
}
