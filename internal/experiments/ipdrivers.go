package experiments

import (
	"errors"
	"time"

	"unet/internal/faults"
	"unet/internal/ip"
	"unet/internal/ip/tcp"
	"unet/internal/ip/udp"
	"unet/internal/kernelpath"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/testbed"
)

// PathKind selects the packet path under test.
type PathKind int

// The three §7 execution environments.
const (
	PathUNet      PathKind = iota // U-Net user-level path (SBA-200 firmware)
	PathKernelATM                 // in-kernel path over the Fore firmware ATM
	PathKernelEth                 // in-kernel path over 10 Mbit/s Ethernet
)

func (k PathKind) String() string {
	switch k {
	case PathUNet:
		return "U-Net"
	case PathKernelATM:
		return "kernel/ATM"
	default:
		return "kernel/Ethernet"
	}
}

// ipPair assembles a conduit pair of the requested kind on a fresh testbed
// whose ATM fabric plan impairs (nil is the perfect wire; the Ethernet
// segment has no fault injection). sockBuf overrides the kernel socket
// buffer: TCP sizes it to its window (setsockopt SO_RCVBUF), so TCP
// experiments pass the window; 0 keeps the SunOS default. The caller owns
// tb.Close.
func ipPair(kind PathKind, sockBuf int, plan *faults.Plan) (*testbed.Testbed, ip.Conduit, ip.Conduit) {
	kp := kernelpath.DefaultParams()
	if sockBuf > 0 {
		kp.SockBufBytes = sockBuf
	}
	switch kind {
	case PathUNet:
		tb := testbed.New(testbed.Config{Hosts: 2, Shards: shardCount(), Faults: plan})
		ca, cb, err := tb.NewIPConduitPair(0, 1)
		mustNoErr(err, "unet ip pair")
		return tb, ca, cb
	case PathKernelATM:
		fore := nic.ForeParams()
		tb := testbed.New(testbed.Config{Hosts: 2, NIC: &fore, Shards: shardCount(), Faults: plan})
		ia, ib, err := tb.NewIPConduitPair(0, 1)
		mustNoErr(err, "kernel atm pair")
		ka := kernelpath.New(tb.Hosts[0], ia, kp)
		kb := kernelpath.New(tb.Hosts[1], ib, kp)
		return tb, ka, kb
	default:
		// The shared-medium Ethernet model couples both hosts on one
		// engine; this path always runs serially.
		tb := testbed.New(testbed.Config{Hosts: 2})
		en := kernelpath.NewEthernet(tb.Eng)
		pa := en.NewPort(1, 2)
		pb := en.NewPort(2, 1)
		ka := kernelpath.New(tb.Hosts[0], pa, kp)
		kb := kernelpath.New(tb.Hosts[1], pb, kp)
		return tb, ka, kb
	}
}

func udpParamsFor(kind PathKind) udp.Params {
	if kind == PathUNet {
		return udp.DefaultParams()
	}
	return kernelpath.UDPParams()
}

func tcpParamsFor(kind PathKind, window int) tcp.Params {
	if kind == PathUNet {
		p := tcp.DefaultParams()
		if window > 0 {
			p.WindowBytes = window
		}
		return p
	}
	p := kernelpath.TCPParams(window)
	if kind == PathKernelEth {
		p.MSS = 1460 // Ethernet MTU
	}
	return p
}

// How long the UDP drivers wait for a datagram: a reply in an echo, the
// next arrival of a stream (past that, a stream whose sender is done is
// over; what has not come was dropped).
const (
	udpReplyTimeout = time.Second
	udpStreamGap    = 20 * time.Millisecond
)

// udpSock is a Messenger over a bound UDP socket and its peer's port. A
// socket has no untimed receive, so the drivers always give it a timeout.
type udpSock struct {
	testbed.Connectionless
	s    *udp.Socket
	peer uint16
	data []byte
}

func (m *udpSock) Send(p *sim.Proc, n int) error { return m.s.SendTo(p, m.peer, m.data[:n]) }

func (m *udpSock) Recv(p *sim.Proc, timeout time.Duration) (int, error) {
	data, _, ok := m.s.RecvFrom(p, timeout)
	if !ok {
		return 0, testbed.ErrTimeout
	}
	return len(data), nil
}

// udpPair binds port 1 on host 0's conduit and port 2 on host 1's, as the
// messengers of size-byte datagrams between them.
func udpPair(ca, cb ip.Conduit, params udp.Params, size int) (a, b *udpSock) {
	ska, err := udp.NewStack(ca, params).Bind(1, 0)
	mustNoErr(err, "bind")
	skb, err := udp.NewStack(cb, params).Bind(2, 0)
	mustNoErr(err, "bind")
	return &udpSock{s: ska, peer: 2, data: make([]byte, size)}, &udpSock{s: skb, peer: 1, data: make([]byte, size)}
}

// UDPRTT measures the UDP echo round trip for size-byte payloads.
func UDPRTT(kind PathKind, size, rounds int) time.Duration {
	return udpRTT(kind, udpParamsFor(kind), size, rounds)
}

// UNetUDPNoChecksumRTT measures UDP round trips with the checksum
// switched off (§7.6 ablation).
func UNetUDPNoChecksumRTT(size, rounds int) time.Duration {
	params := udp.DefaultParams()
	params.Checksum = false
	return udpRTT(PathUNet, params, size, rounds)
}

// udpRTT is the mean of rounds UDP round trips; zero if a datagram is lost.
func udpRTT(kind PathKind, params udp.Params, size, rounds int) time.Duration {
	tb, ca, cb := ipPair(kind, 0, nil)
	defer tb.Close()
	a, b := udpPair(ca, cb, params, size)
	rtt, _ := testbed.Echo(tb, a, b, size, rounds, udpReplyTimeout)
	return rtt
}

// UDPBandwidth blasts count size-byte datagrams and reports the
// sender-perceived and receiver-observed bandwidths in MB/s (the two
// kernel curves of Figure 7). They differ even where nothing is lost: the
// sender's figure is how fast the send path took the burst, which a queue
// can absorb faster than the wire drains it.
func UDPBandwidth(kind PathKind, size, count int) (sentMBps, recvMBps float64) {
	tb, ca, cb := ipPair(kind, 0, nil)
	defer tb.Close()
	a, b := udpPair(ca, cb, udpParamsFor(kind), size)
	// A datagram the kernel drops is part of the figure, not a failure.
	f, _ := testbed.Stream(tb, a, b, count, size, udpStreamGap)
	sentMBps = float64(size*count) / (f.End - f.Start).Seconds() / 1e6
	if f.Last > f.First {
		recvMBps = float64(size*(f.Delivered-1)) / (f.Last - f.First).Seconds() / 1e6
	}
	return sentMBps, recvMBps
}

// What the TCP drivers give the protocol: the active side's patience to
// connect and to drain its send buffer (longer than U-Net TCP's whole
// retry budget, so the protocol gives up first), the wait for an echo's
// reply, and how long a stream's reader waits for data before asking
// whether the writer is done.
const (
	tcpPatience     = time.Hour
	tcpReplyTimeout = 2 * time.Second
	tcpStreamPoll   = 500 * time.Millisecond
)

// tcpConn is a Messenger over one end of a TCP connection. The active side
// dials in Open and drains in Close; the passive side accepts in its first
// Recv. A Send is as many chunk-byte writes as cover its bytes, and a Recv
// one read into a buffer of at least 64 KB.
type tcpConn struct {
	c     *tcp.Conn
	chunk int
	buf   []byte
}

func (m *tcpConn) Open(p *sim.Proc) error { return m.c.Dial(p, tcpPatience) }

func (m *tcpConn) Send(p *sim.Proc, n int) error {
	for off := 0; off < n; off += m.chunk {
		if err := m.c.Write(p, m.buf[:m.chunk]); err != nil {
			return err
		}
	}
	return nil
}

func (m *tcpConn) Recv(p *sim.Proc, timeout time.Duration) (int, error) {
	if !m.c.Established() {
		if err := m.c.Accept(p, timeout); err != nil {
			if errors.Is(err, tcp.ErrTimeout) {
				err = testbed.ErrTimeout
			}
			return 0, err
		}
	}
	n, err := m.c.Read(p, m.buf, timeout)
	if err == nil && n == 0 {
		err = testbed.ErrTimeout
	}
	return n, err
}

func (m *tcpConn) Close(p *sim.Proc) error { return m.c.Flush(p, tcpPatience) }

// tcpPair makes host 0's conduit the dialing end of a TCP connection and
// host 1's the accepting end, writing chunk bytes at a time.
func tcpPair(ca, cb ip.Conduit, params tcp.Params, chunk int) (a, b *tcpConn) {
	n := max(chunk, 64<<10)
	return &tcpConn{c: tcp.New(ca, 5000, 80, params), chunk: chunk, buf: make([]byte, n)},
		&tcpConn{c: tcp.New(cb, 80, 5000, params), chunk: chunk, buf: make([]byte, n)}
}

// TCPRTT measures the TCP echo round trip for size-byte messages.
func TCPRTT(kind PathKind, size, rounds int) time.Duration {
	tb, ca, cb := ipPair(kind, 64<<10, nil)
	defer tb.Close()
	return tcpRTT(tb, ca, cb, tcpParamsFor(kind, 0), size, rounds)
}

// tcpRTT is the mean of rounds TCP round trips over a connection between
// ca and cb; zero if the connection fails before the last one returns.
func tcpRTT(tb *testbed.Testbed, ca, cb ip.Conduit, params tcp.Params, size, rounds int) time.Duration {
	a, b := tcpPair(ca, cb, params, size)
	rtt, _ := testbed.Echo(tb, a, b, size, rounds, tcpReplyTimeout)
	return rtt
}

// TCPBandwidth transfers total bytes written in writeSize chunks with the
// given receive window and reports MB/s (Figure 8).
func TCPBandwidth(kind PathKind, window, writeSize, total int) float64 {
	return TCPBandwidthMSS(kind, window, 0, writeSize, total)
}

// TCPBandwidthMSS is TCPBandwidth with an explicit maximum segment size
// (0 keeps the path's standard one); 0 if the transfer fails.
func TCPBandwidthMSS(kind PathKind, window, mss, writeSize, total int) float64 {
	tb, ca, cb := ipPair(kind, window+(16<<10), nil)
	defer tb.Close()
	params := tcpParamsFor(kind, window)
	if mss > 0 {
		params.MSS = mss
	}
	f, err := tcpStream(tb, ca, cb, params, writeSize, total)
	if err != nil || f.Last <= f.Start {
		return 0
	}
	return float64(f.Bytes) / (f.Last - f.Start).Seconds() / 1e6
}

// tcpStream connects ca to cb and sends total bytes as one message of
// writeSize writes (the last rounded up to a whole write). The transfer
// time is Last-Start: from the established connection's first write to the
// read that brought the total in.
func tcpStream(tb *testbed.Testbed, ca, cb ip.Conduit, params tcp.Params, writeSize, total int) (testbed.Flow, error) {
	a, b := tcpPair(ca, cb, params, writeSize)
	return testbed.Stream(tb, a, b, 1, total, tcpStreamPoll)
}
