// Package kernelpath models the traditional in-kernel networking path the
// paper uses as its baseline (Figure 1a, §7): BSD-style sockets on SunOS
// 4.1.3 with mbuf buffering, bounded socket buffers, per-packet system
// calls, copies and interrupts — over either the Fore ATM adapter (with
// the original firmware) or 10 Mbit/s Ethernet.
//
// The same UDP and TCP modules that run over U-Net run over this package's
// Conduit; only the execution environment differs, which is precisely the
// comparison of Figures 6-9. The kernel path is modeled as cost layers
// wrapped around an inner wire conduit:
//
//	application ──syscall+copyin+stack+mbuf──▶ driver queue ──driver──▶ wire
//	wire ──interrupt+stack+mbuf──▶ socket buffer ──wakeup+syscall+copyout──▶ application
//
// The mbuf allocator reproduces the §7.3 pathology: data is placed in
// 1 Kbyte cluster buffers, and a remainder of less than 512 bytes is
// copied into chains of 112-byte small mbufs, which lack reference counts
// and are expensive — the source of the 1 KB-period sawtooth in Figure 7.
package kernelpath

import (
	"time"

	"unet/internal/ip"
	"unet/internal/ip/tcp"
	"unet/internal/ip/udp"
	"unet/internal/sim"
	"unet/internal/unet"
)

// Params is the kernel-path cost model (SunOS 4.1.3 on a SPARCstation-20).
type Params struct {
	// Syscall is the trap in/out cost paid on every send and receive.
	Syscall time.Duration
	// CopyPerByte is the user/kernel boundary copy cost (uiomove) —
	// slower than a tuned memcpy because of page-wise checks.
	CopyPerByte time.Duration
	// StackPerPacket is the generic IP + socket layer processing per
	// packet in the kernel (excluding UDP/TCP protocol costs, which the
	// protocol modules charge).
	StackPerPacket time.Duration
	// ClusterCost and SmallMbufCost price the mbuf allocate/free work for
	// 1 KB clusters and 112-byte small mbufs (§7.3: the small ones have
	// no reference counts and degrade performance).
	ClusterCost   time.Duration
	SmallMbufCost time.Duration
	// Interrupt is the per-packet receive interrupt overhead.
	Interrupt time.Duration
	// Wakeup is the scheduler cost of waking the blocked receiver.
	Wakeup time.Duration
	// DriverTx is the device-driver transmit handoff per packet.
	DriverTx time.Duration
	// TxQueuePackets bounds the device transmit queue; SunOS "will drop
	// random packets from the device transmit queue if there is overload
	// without notifying the sending application" (§7.4).
	TxQueuePackets int
	// SockBufBytes is the socket receive buffer (§7.3: max 52 Kbytes in
	// SunOS) — the overflow point for kernel UDP receive losses.
	SockBufBytes int
}

// DefaultParams returns the calibrated SunOS model.
func DefaultParams() Params {
	return Params{
		Syscall:        17 * time.Microsecond,
		CopyPerByte:    80 * time.Nanosecond,
		StackPerPacket: 30 * time.Microsecond,
		ClusterCost:    4 * time.Microsecond,
		SmallMbufCost:  8 * time.Microsecond,
		Interrupt:      40 * time.Microsecond,
		Wakeup:         60 * time.Microsecond,
		DriverTx:       15 * time.Microsecond,
		TxQueuePackets: 40,
		SockBufBytes:   52 << 10,
	}
}

// MbufChain returns the buffer chain the SunOS allocator builds for an
// n-byte packet: full 1 KB clusters, and either one more cluster (when the
// remainder is at least 512 bytes) or a chain of 112-byte small mbufs.
func MbufChain(n int) (clusters, smalls int) {
	clusters = n / 1024
	rem := n % 1024
	switch {
	case rem == 0:
	case rem >= 512:
		clusters++
	default:
		smalls = (rem + 111) / 112
	}
	return clusters, smalls
}

// mbufCost prices allocating (or freeing) the chain for n bytes.
func (pr *Params) mbufCost(n int) time.Duration {
	clusters, smalls := MbufChain(n)
	return time.Duration(clusters)*pr.ClusterCost + time.Duration(smalls)*pr.SmallMbufCost
}

// UDPParams returns the kernel UDP protocol configuration: heavier
// per-packet processing and — faithful to SunOS defaults — no UDP
// checksum.
func UDPParams() udp.Params {
	return udp.Params{
		ProcTx:          25 * time.Microsecond,
		ProcRx:          25 * time.Microsecond,
		PCBMiss:         8 * time.Microsecond,
		Checksum:        false,
		ChecksumPerByte: 10 * time.Nanosecond,
	}
}

// TCPParams returns the kernel TCP configuration (§7.8): 500 ms
// pr_slow_timeout granularity, delayed acknowledgments, a large MSS
// matching the IP-over-ATM MTU, and the socket-buffer-sized window.
func TCPParams(windowBytes int) tcp.Params {
	if windowBytes <= 0 {
		windowBytes = 52 << 10
	}
	return tcp.Params{
		MSS:              8192,
		WindowBytes:      windowBytes,
		SendBufBytes:     64 << 10,
		TimerGranularity: 500 * time.Millisecond,
		DelayedAck:       true,
		DelayedAckDelay:  200 * time.Millisecond,
		ProcTx:           35 * time.Microsecond,
		ProcRx:           35 * time.Microsecond,
		Checksum:         true,
		ChecksumPerByte:  10 * time.Nanosecond,
	}
}

// Stats counts kernel-path events.
type Stats struct {
	Sent, Received  uint64
	TxQueueDrops    uint64
	SockBufDrops    uint64
	ClustersAlloced uint64
	SmallsAlloced   uint64
}

// Conduit is the in-kernel packet path between two hosts. It implements
// ip.Conduit so the UDP/TCP modules run over it unchanged.
type Conduit struct {
	host   *unet.Host
	inner  ip.Conduit
	params Params

	txq *sim.FIFO[[]byte]

	sockBytes int
	sockQ     [][]byte
	sockCond  sim.Cond

	// The kernel path shares one CPU between the application's system
	// calls and the interrupt/driver work — unlike U-Net, where the i960
	// runs in parallel with the host. cpuBusy serializes the charged work,
	// and interrupt-level work takes priority over system calls, which is
	// what lets a receive flood starve the application (receive livelock)
	// and overflow the socket buffer.
	cpuBusy     bool
	intrWaiting int
	cpuFree     sim.Cond

	stats Stats
}

// withCPU runs d of system-call-level kernel work on the (single) CPU,
// deferring to any pending interrupt-level work.
func (c *Conduit) withCPU(p *sim.Proc, d time.Duration) {
	for c.cpuBusy || c.intrWaiting > 0 {
		p.Wait(&c.cpuFree)
	}
	c.cpuBusy = true
	p.Charge(d)
	c.cpuBusy = false
	c.cpuFree.Broadcast()
}

// withCPUIntr runs d of interrupt-level work, which preempts (waits only
// for the current holder, never behind other system calls).
func (c *Conduit) withCPUIntr(p *sim.Proc, d time.Duration) {
	c.intrWaiting++
	for c.cpuBusy {
		p.Wait(&c.cpuFree)
	}
	c.intrWaiting--
	c.cpuBusy = true
	p.Charge(d)
	c.cpuBusy = false
	c.cpuFree.Broadcast()
}

// New wraps the inner wire conduit (an ATM endpoint path or an Ethernet
// port) in the kernel cost layers and starts the driver and interrupt
// service processes on host.
func New(host *unet.Host, inner ip.Conduit, params Params) *Conduit {
	c := &Conduit{
		host:   host,
		inner:  inner,
		params: params,
		txq:    sim.NewFIFO[[]byte](params.TxQueuePackets),
	}
	host.Spawn("kernel-tx", c.txProc)
	host.Spawn("kernel-rx", c.rxProc)
	return c
}

// Stats returns a snapshot of the conduit counters.
func (c *Conduit) Stats() Stats { return c.stats }

// LocalAddr returns the local host address.
func (c *Conduit) LocalAddr() uint32 { return c.inner.LocalAddr() }

// RemoteAddr returns the peer host address.
func (c *Conduit) RemoteAddr() uint32 { return c.inner.RemoteAddr() }

// MTU returns the wire MTU.
func (c *Conduit) MTU() int { return c.inner.MTU() }

// Send runs the kernel transmit path: trap, copyin into an mbuf chain,
// stack processing, and the device queue — which silently drops on
// overload (§7.4).
func (c *Conduit) Send(p *sim.Proc, pkt []byte) error {
	pr := &c.params
	c.withCPU(p, pr.Syscall+time.Duration(len(pkt))*pr.CopyPerByte+
		pr.mbufCost(len(pkt))+pr.StackPerPacket)
	c.accountMbufs(len(pkt))
	c.stats.Sent++
	buf := make([]byte, len(pkt))
	copy(buf, pkt)
	if !c.txq.TryPut(buf) {
		c.stats.TxQueueDrops++ // silent: the application is not told
	}
	return nil
}

func (c *Conduit) accountMbufs(n int) {
	cl, sm := MbufChain(n)
	c.stats.ClustersAlloced += uint64(cl)
	c.stats.SmallsAlloced += uint64(sm)
}

// txProc is the driver's transmit side: it drains the device queue onto
// the wire.
func (c *Conduit) txProc(p *sim.Proc) {
	for {
		pkt := c.txq.Get(p)
		c.withCPU(p, c.params.DriverTx)
		if err := c.inner.Send(p, pkt); err != nil {
			continue
		}
	}
}

// rxProc is the interrupt side: packets come off the wire, pay interrupt
// and stack costs, and land in the bounded socket buffer.
func (c *Conduit) rxProc(p *sim.Proc) {
	pr := &c.params
	for {
		pkt, ok := c.inner.Recv(p, -1)
		if !ok {
			continue
		}
		c.withCPUIntr(p, pr.Interrupt+pr.StackPerPacket+pr.mbufCost(len(pkt)))
		c.accountMbufs(len(pkt))
		if c.sockBytes+len(pkt) > pr.SockBufBytes {
			c.stats.SockBufDrops++
			continue
		}
		c.sockQ = append(c.sockQ, pkt)
		c.sockBytes += len(pkt)
		c.stats.Received++
		c.sockCond.Broadcast()
	}
}

func (c *Conduit) pop() ([]byte, bool) {
	if len(c.sockQ) == 0 {
		return nil, false
	}
	pkt := c.sockQ[0]
	c.sockQ = c.sockQ[1:]
	c.sockBytes -= len(pkt)
	return pkt, true
}

// Recv runs the kernel receive path visible to the application: block in
// the kernel, be woken, copy out. A negative timeout blocks until a
// datagram arrives.
func (c *Conduit) Recv(p *sim.Proc, timeout time.Duration) ([]byte, bool) {
	pr := &c.params
	c.withCPU(p, pr.Syscall)
	deadline := p.Now() + timeout
	for {
		if pkt, ok := c.pop(); ok {
			c.withCPU(p, pr.Wakeup+time.Duration(len(pkt))*pr.CopyPerByte)
			return pkt, true
		}
		if timeout < 0 {
			p.Wait(&c.sockCond)
			continue
		}
		remain := deadline - p.Now()
		if remain <= 0 {
			return nil, false
		}
		p.WaitTimeout(&c.sockCond, remain)
	}
}

// TryRecv polls the socket buffer without blocking.
func (c *Conduit) TryRecv(p *sim.Proc) ([]byte, bool) {
	pr := &c.params
	c.withCPU(p, pr.Syscall)
	pkt, ok := c.pop()
	if !ok {
		return nil, false
	}
	c.withCPU(p, time.Duration(len(pkt))*pr.CopyPerByte)
	return pkt, true
}
