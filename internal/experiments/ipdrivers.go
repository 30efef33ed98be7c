package experiments

import (
	"time"

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

// ipPair assembles a conduit pair of the requested kind on a fresh
// testbed. The caller owns tb.Close.
func ipPair(kind PathKind) (*testbed.Testbed, ip.Conduit, ip.Conduit) {
	return ipPairSock(kind, 0)
}

// ipPairSock is ipPair with an overridden kernel socket buffer. TCP sizes
// the socket buffer to its window (setsockopt SO_RCVBUF), so TCP
// experiments pass the window here; 0 keeps the SunOS default.
func ipPairSock(kind PathKind, sockBuf int) (*testbed.Testbed, ip.Conduit, ip.Conduit) {
	kp := kernelpath.DefaultParams()
	if sockBuf > 0 {
		kp.SockBufBytes = sockBuf
	}
	switch kind {
	case PathUNet:
		tb := testbed.New(testbed.Config{Hosts: 2, Shards: shardCount()})
		ca, cb, err := tb.NewIPConduitPair(0, 1)
		mustNoErr(err, "unet ip pair")
		return tb, ca, cb
	case PathKernelATM:
		fore := nic.ForeParams()
		tb := testbed.New(testbed.Config{Hosts: 2, NIC: &fore, Shards: shardCount()})
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

// UDPRTT measures the UDP echo round trip for size-byte payloads.
func UDPRTT(kind PathKind, size, rounds int) time.Duration {
	tb, ca, cb := ipPair(kind)
	defer tb.Close()
	return udpEcho(tb, ca, cb, udpParamsFor(kind), size, rounds)
}

// udpEcho bounces rounds+1 size-byte datagrams off cb's stack and returns
// the mean round trip of all but the first; zero if one is lost.
func udpEcho(tb *testbed.Testbed, ca, cb ip.Conduit, params udp.Params, size, rounds int) time.Duration {
	ska, err := udp.NewStack(ca, params).Bind(1, 0)
	mustNoErr(err, "bind")
	skb, err := udp.NewStack(cb, params).Bind(2, 0)
	mustNoErr(err, "bind")
	var rtt time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for i := 0; i < rounds+1; i++ {
			data, src, ok := skb.RecvFrom(p, time.Second)
			if !ok {
				return
			}
			skb.SendTo(p, src, data)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		var start time.Duration
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			ska.SendTo(p, 2, make([]byte, size))
			if _, _, ok := ska.RecvFrom(p, time.Second); !ok {
				return
			}
		}
		rtt = (p.Now() - start) / time.Duration(rounds)
	})
	tb.Eng.Run()
	return rtt
}

// UDPBandwidth blasts count size-byte datagrams and reports the
// sender-perceived and receiver-observed bandwidths in MB/s (the two
// kernel curves of Figure 7; for U-Net they coincide because nothing is
// lost).
func UDPBandwidth(kind PathKind, size, count int) (sentMBps, recvMBps float64) {
	tb, ca, cb := ipPair(kind)
	defer tb.Close()
	sa := udp.NewStack(ca, udpParamsFor(kind))
	sb := udp.NewStack(cb, udpParamsFor(kind))
	ska, err := sa.Bind(1, 0)
	mustNoErr(err, "bind")
	skb, err := sb.Bind(2, 0)
	mustNoErr(err, "bind")
	var sendElapsed time.Duration
	received := 0
	var recvStart, recvEnd time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for {
			if _, _, ok := skb.RecvFrom(p, 20*time.Millisecond); !ok {
				return
			}
			received++
			if received == 1 {
				recvStart = p.Now()
			} else {
				recvEnd = p.Now()
			}
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < count; i++ {
			ska.SendTo(p, 2, make([]byte, size))
		}
		sendElapsed = p.Now() - start
	})
	tb.Eng.Run()
	sentMBps = float64(size*count) / sendElapsed.Seconds() / 1e6
	if recvEnd > recvStart {
		recvMBps = float64(size*(received-1)) / (recvEnd - recvStart).Seconds() / 1e6
	}
	return sentMBps, recvMBps
}

// TCPRTT measures the TCP echo round trip for size-byte messages.
func TCPRTT(kind PathKind, size, rounds int) time.Duration {
	tb, ca, cb := ipPairSock(kind, 64<<10)
	defer tb.Close()
	a := tcp.New(ca, 5000, 80, tcpParamsFor(kind, 0))
	b := tcp.New(cb, 80, 5000, tcpParamsFor(kind, 0))
	return tcpEcho(tb, a, b, size, rounds)
}

// tcpEcho connects a to b, bounces rounds+1 size-byte messages off b and
// returns the mean round trip of all but the first; zero if the connection
// fails before the last one returns.
func tcpEcho(tb *testbed.Testbed, a, b *tcp.Conn, size, rounds int) time.Duration {
	var rtt time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, time.Second); err != nil {
			return
		}
		buf := make([]byte, size)
		for i := 0; i < rounds+1; i++ {
			if !readFull(p, b, buf) {
				return
			}
			if b.Write(p, buf) != nil {
				return
			}
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, time.Second); err != nil {
			return
		}
		buf := make([]byte, size)
		var start time.Duration
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			if a.Write(p, buf) != nil {
				return
			}
			if !readFull(p, a, buf) {
				return
			}
		}
		rtt = (p.Now() - start) / time.Duration(rounds)
	})
	tb.Eng.Run()
	return rtt
}

func readFull(p *sim.Proc, c *tcp.Conn, buf []byte) bool {
	n := 0
	for n < len(buf) {
		m, err := c.Read(p, buf[n:], 2*time.Second)
		if err != nil {
			return false
		}
		if m == 0 {
			return false
		}
		n += m
	}
	return true
}

// TCPBandwidth transfers total bytes written in writeSize chunks with the
// given receive window and reports MB/s (Figure 8).
func TCPBandwidth(kind PathKind, window, writeSize, total int) float64 {
	return TCPBandwidthMSS(kind, window, 0, writeSize, total)
}

// UNetUDPNoChecksumRTT measures UDP round trips with the checksum
// switched off (§7.6 ablation).
func UNetUDPNoChecksumRTT(size, rounds int) time.Duration {
	tb, ca, cb := ipPair(PathUNet)
	defer tb.Close()
	params := udp.DefaultParams()
	params.Checksum = false
	return udpEcho(tb, ca, cb, params, size, rounds)
}
