// Package machine provides abstract parallel-machine models for the
// Split-C comparison of paper §6: the Thinking Machines CM-5 and the Meiko
// CS-2, characterized by the Table 2 parameters (CPU speed, per-message
// overhead, round-trip latency, network bandwidth). Each model implements
// splitc.Transport, so the benchmark programs run unmodified on all three
// machines.
//
// The model is LogGP-flavoured: a send busies the sending processor for
// OSend plus GPerByte per byte, the message arrives Latency later, and
// reception busies the receiving processor for ORecv plus GPerByte per
// byte when it polls. Delivery is reliable and in order per node pair, as
// on the real machines' networks.
package machine

import (
	"fmt"
	"time"

	"unet/internal/sim"
	"unet/internal/splitc"
)

// Params characterizes a machine (Table 2).
type Params struct {
	Name string
	// CPU is the relative processor speed (1.0 = 60 MHz SuperSPARC).
	CPU float64
	// OSend and ORecv are the per-message processor overheads.
	OSend, ORecv time.Duration
	// Latency is the one-way network latency between injection and
	// availability at the receiver.
	Latency time.Duration
	// GPerByte is the inverse bandwidth, charged at both ends.
	GPerByte time.Duration
}

// CM5Params returns the Thinking Machines CM-5 model: 33 MHz SPARC-2
// nodes (slow CPU), 3 µs message overhead, 12 µs round trip, 10 MB/s
// (Table 2).
func CM5Params() Params {
	return Params{
		Name:     "CM-5",
		CPU:      0.30,                 // 33 MHz SPARC-2 vs 60 MHz SuperSPARC
		OSend:    3 * time.Microsecond, // Table 2's per-message overhead
		ORecv:    1500 * time.Nanosecond,
		Latency:  1500 * time.Nanosecond,
		GPerByte: 100 * time.Nanosecond, // 10 MB/s
	}
}

// MeikoParams returns the Meiko CS-2 model: 40 MHz SuperSPARC nodes,
// 11 µs message overhead, 25 µs round trip, 39 MB/s (Table 2).
func MeikoParams() Params {
	return Params{
		Name:     "Meiko CS-2",
		CPU:      0.67,                  // 40 MHz vs 60 MHz SuperSPARC
		OSend:    11 * time.Microsecond, // Table 2's per-message overhead
		ORecv:    1 * time.Microsecond,  // the Elan co-processor delivers
		Latency:  500 * time.Nanosecond,
		GPerByte: 26 * time.Nanosecond, // ~39 MB/s
	}
}

// RTT returns the model's small-message round-trip time
// (2 × (OSend + Latency + ORecv)), for Table 2 verification.
func (p Params) RTT() time.Duration {
	return 2 * (p.OSend + p.Latency + p.ORecv)
}

// Bandwidth returns the model's asymptotic bandwidth in MB/s.
func (p Params) Bandwidth() float64 {
	return 1.0 / p.GPerByte.Seconds() / 1e6
}

// kinds of model messages.
const (
	mSend = iota + 1
	mRPC
	mRPCR
	mBulk
)

type mmsg struct {
	src   int
	kind  int
	token uint32
	arg   uint32
	data  []byte
}

// Machine is an n-node instance of a model.
type Machine struct {
	e     *sim.Engine
	p     Params
	nodes []*Node
}

// New builds an n-node machine on engine e.
func New(e *sim.Engine, p Params, n int) *Machine {
	m := &Machine{e: e, p: p}
	for i := 0; i < n; i++ {
		m.nodes = append(m.nodes, &Node{
			m:    m,
			self: i,
			mbox: sim.NewFIFO[mmsg](0),
			rpcs: make(map[uint32]*rpcResult),
		})
	}
	return m
}

// Node returns the transport of processor i.
func (m *Machine) Node(i int) *Node { return m.nodes[i] }

// Node is one processor's transport endpoint. It implements
// splitc.Transport.
type Node struct {
	m    *Machine
	self int
	mbox *sim.FIFO[mmsg]

	onReq  splitc.RequestHandler
	onBulk splitc.BulkHandler

	nextTok uint32
	rpcs    map[uint32]*rpcResult

	// pending counts messages sent but not yet delivered to the peer
	// mailbox (Flush waits on the network having drained, which the
	// hardware's send-complete conditions provide).
	pending int
	drained sim.Cond
}

type rpcResult struct {
	done bool
	arg  uint32
	data []byte
}

var _ splitc.Transport = (*Node)(nil)

// Self returns the processor number.
func (nd *Node) Self() int { return nd.self }

// Size returns the machine width.
func (nd *Node) Size() int { return len(nd.m.nodes) }

// SetRequestHandler installs the small-message dispatch target.
func (nd *Node) SetRequestHandler(fn splitc.RequestHandler) { nd.onReq = fn }

// SetBulkHandler installs the bulk dispatch target.
func (nd *Node) SetBulkHandler(fn splitc.BulkHandler) { nd.onBulk = fn }

// CPU reports the relative processor speed.
func (nd *Node) CPU() float64 { return nd.m.p.CPU }

// Engine returns the simulation engine.
func (nd *Node) Engine() *sim.Engine { return nd.m.e }

// Spawn starts the node's thread of control.
func (nd *Node) Spawn(name string, fn func(*sim.Proc)) *sim.Proc {
	return nd.m.e.Spawn(fmt.Sprintf("%s/%d/%s", nd.m.p.Name, nd.self, name), fn)
}

// transmit charges the sender and schedules delivery.
func (nd *Node) transmit(p *sim.Proc, dst int, msg mmsg) {
	cost := nd.m.p.OSend + time.Duration(len(msg.data))*nd.m.p.GPerByte
	p.Sleep(cost)
	// Injection is serialized per node; bulk pipelining happens because
	// the per-byte cost is charged while the processor streams the data.
	target := nd.m.nodes[dst]
	nd.pending++
	nd.m.e.After(nd.m.p.Latency, func() {
		target.mbox.TryPut(msg)
		nd.pending--
		if nd.pending == 0 {
			nd.drained.Broadcast()
		}
	})
}

// receive processes one mailbox entry, charging receive overhead.
func (nd *Node) receive(p *sim.Proc, msg mmsg) {
	p.Sleep(nd.m.p.ORecv + time.Duration(len(msg.data))*nd.m.p.GPerByte)
	switch msg.kind {
	case mSend:
		if nd.onReq != nil {
			nd.onReq(p, msg.src, msg.arg, msg.data)
		}
	case mRPC:
		var rarg uint32
		var rdata []byte
		if nd.onReq != nil {
			rarg, rdata = nd.onReq(p, msg.src, msg.arg, msg.data)
		}
		nd.transmit(p, msg.src, mmsg{src: nd.self, kind: mRPCR, token: msg.token, arg: rarg, data: rdata})
	case mRPCR:
		if res, ok := nd.rpcs[msg.token]; ok {
			res.arg = msg.arg
			res.data = msg.data
			res.done = true
		}
	case mBulk:
		if nd.onBulk != nil {
			nd.onBulk(p, msg.src, msg.data)
		}
	}
}

// Send transmits a one-way small message.
func (nd *Node) Send(p *sim.Proc, dst int, arg uint32, data []byte) {
	nd.transmit(p, dst, mmsg{src: nd.self, kind: mSend, arg: arg, data: append([]byte(nil), data...)})
}

// RPC performs a blocking request/reply exchange.
func (nd *Node) RPC(p *sim.Proc, dst int, arg uint32, data []byte) (uint32, []byte) {
	nd.nextTok++
	tok := nd.nextTok
	res := &rpcResult{}
	nd.rpcs[tok] = res
	nd.transmit(p, dst, mmsg{src: nd.self, kind: mRPC, token: tok, arg: arg, data: append([]byte(nil), data...)})
	for !res.done {
		nd.PollWait(p, time.Millisecond)
	}
	delete(nd.rpcs, tok)
	return res.arg, res.data
}

// Bulk transmits a one-way block transfer.
func (nd *Node) Bulk(p *sim.Proc, dst int, data []byte) {
	nd.transmit(p, dst, mmsg{src: nd.self, kind: mBulk, data: append([]byte(nil), data...)})
}

// Poll drains the mailbox without blocking.
func (nd *Node) Poll(p *sim.Proc) {
	for {
		msg, ok := nd.mbox.TryGet()
		if !ok {
			return
		}
		nd.receive(p, msg)
	}
}

// PollWait blocks up to d for the first arrival, then drains.
func (nd *Node) PollWait(p *sim.Proc, d time.Duration) {
	if nd.mbox.Len() == 0 {
		if !p.WaitTimeout(nd.mbox.NotEmpty(), d) {
			return
		}
	}
	nd.Poll(p)
}

// Flush waits until this node's injected messages have reached their
// destination mailboxes.
func (nd *Node) Flush(p *sim.Proc) {
	for nd.pending > 0 {
		p.Wait(&nd.drained)
	}
}
