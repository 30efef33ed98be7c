package splitc

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"unet/internal/sim"
)

// Runtime message kinds, carried in the top byte of the transport arg.
const (
	kindUser    = iota + 1 // application small message / RPC
	kindBarrier            // dissemination barrier round
	kindReduce             // butterfly all-reduce round
)

func packArg(kind int, low uint32) uint32 {
	return uint32(kind)<<24 | (low & 0xFFFFFF)
}

func unpackArg(arg uint32) (int, uint32) {
	return int(arg >> 24), arg & 0xFFFFFF
}

// UserHandler processes application small messages (one-way Sends). For
// user RPCs the returned pair is the reply.
type UserHandler func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte)

// Node is one Split-C processor: a thread of control with access to the
// global operations. All methods must be called from the node's own
// process.
type Node struct {
	t Transport

	userSmall UserHandler
	userBulk  BulkHandler

	// barrier/reduce state, keyed by (round, epoch mod small space)
	barSeen map[uint32]int
	redVals map[uint32][]int64
	barEp   uint32
	redEp   uint32

	commTime    time.Duration
	computeTime time.Duration
}

// NewNode wraps a transport in the Split-C runtime.
func NewNode(t Transport) *Node {
	nd := &Node{
		t:       t,
		barSeen: make(map[uint32]int),
		redVals: make(map[uint32][]int64),
	}
	t.SetRequestHandler(nd.onRequest)
	t.SetBulkHandler(nd.onBulk)
	return nd
}

// Self returns the node index; N the machine width.
func (nd *Node) Self() int { return nd.t.Self() }

// N returns the number of processors.
func (nd *Node) N() int { return nd.t.Size() }

// OnSmall installs the handler for application small messages.
func (nd *Node) OnSmall(fn UserHandler) { nd.userSmall = fn }

// OnBulk installs the handler for application bulk transfers.
func (nd *Node) OnBulk(fn BulkHandler) { nd.userBulk = fn }

// CommTime and ComputeTime report the accumulated phase split, the
// instrumentation behind Figure 5's computation/communication breakdown.
func (nd *Node) CommTime() time.Duration    { return nd.commTime }
func (nd *Node) ComputeTime() time.Duration { return nd.computeTime }

// comm runs fn and accounts its duration as communication time.
func (nd *Node) comm(p *sim.Proc, fn func()) {
	t0 := p.Now()
	fn()
	nd.commTime += p.Now() - t0
}

// Compute charges d of baseline (60 MHz SuperSPARC) CPU work, scaled by
// the machine's relative processor speed — how Figure 5 exposes the CM-5's
// CPU disadvantage.
func (nd *Node) Compute(p *sim.Proc, d time.Duration) {
	scaled := time.Duration(float64(d) / nd.t.CPU())
	t0 := p.Now()
	p.Sleep(scaled)
	nd.computeTime += p.Now() - t0
}

// ComputeOps charges n operations of baseline cost per.
func (nd *Node) ComputeOps(p *sim.Proc, n int, per time.Duration) {
	nd.Compute(p, time.Duration(n)*per)
}

// Baseline per-operation costs on the 60 MHz SuperSPARC (CPU() == 1).
const (
	// FlopCost is one double-precision multiply-add in a tuned loop.
	FlopCost = 35 * time.Nanosecond
	// IntOpCost is one integer compare/swap/index step.
	IntOpCost = 18 * time.Nanosecond
)

// Send delivers a one-way application small message to dst.
func (nd *Node) Send(p *sim.Proc, dst int, arg uint32, data []byte) {
	nd.comm(p, func() { nd.t.Send(p, dst, packArg(kindUser, arg), data) })
}

// RPC performs a blocking application request/reply — the compiled form of
// dereferencing a global pointer (§6).
func (nd *Node) RPC(p *sim.Proc, dst int, arg uint32, data []byte) (rarg uint32, rdata []byte) {
	nd.comm(p, func() { rarg, rdata = nd.t.RPC(p, dst, packArg(kindUser, arg), data) })
	return rarg, rdata
}

// Bulk sends a one-way block transfer to dst's bulk handler.
func (nd *Node) Bulk(p *sim.Proc, dst int, data []byte) {
	nd.comm(p, func() { nd.t.Bulk(p, dst, data) })
}

// Poll dispatches pending arrivals.
func (nd *Node) Poll(p *sim.Proc) {
	nd.comm(p, func() { nd.t.Poll(p) })
}

// PollWait blocks up to d for arrivals.
func (nd *Node) PollWait(p *sim.Proc, d time.Duration) {
	nd.comm(p, func() { nd.t.PollWait(p, d) })
}

// Flush waits until all outgoing traffic is delivered.
func (nd *Node) Flush(p *sim.Proc) {
	nd.comm(p, func() { nd.t.Flush(p) })
}

// onRequest is the runtime's transport dispatch.
func (nd *Node) onRequest(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
	kind, low := unpackArg(arg)
	switch kind {
	case kindUser:
		if nd.userSmall == nil {
			return 0, nil
		}
		return nd.userSmall(p, src, low, data)
	case kindBarrier:
		nd.barSeen[low]++
	case kindReduce:
		v := int64(binary.BigEndian.Uint64(data))
		nd.redVals[low] = append(nd.redVals[low], v)
	}
	return 0, nil
}

func (nd *Node) onBulk(p *sim.Proc, src int, data []byte) {
	if nd.userBulk != nil {
		nd.userBulk(p, src, data)
	}
}

// Barrier synchronizes all processors with a dissemination barrier:
// ceil(log2 N) rounds of one small message each. Note that a barrier does
// NOT flush data channels: ordering is only guaranteed pairwise, so a
// message from A to C sent before A's barrier may arrive at C after C
// exits the barrier. Applications that need all-received semantics send
// per-pair end-of-data markers (see the apps package) or Flush.
func (nd *Node) Barrier(p *sim.Proc) {
	nd.comm(p, func() { nd.barrier(p) })
}

func (nd *Node) barrier(p *sim.Proc) {
	n := nd.N()
	if n == 1 {
		return
	}
	nd.barEp++
	ep := nd.barEp % 1024
	self := nd.Self()
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		key := ep<<8 | uint32(round)
		dst := (self + dist) % n
		nd.t.Send(p, dst, packArg(kindBarrier, key), nil)
		for nd.barSeen[key] == 0 {
			nd.t.PollWait(p, time.Millisecond)
		}
		nd.barSeen[key]--
		if nd.barSeen[key] == 0 {
			delete(nd.barSeen, key)
		}
	}
}

// ReduceOp names an all-reduce combiner.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
	// OpFloatSum interprets the 64-bit values as float64 bit patterns and
	// sums them, for the numeric reductions in conjugate gradient.
	OpFloatSum
)

func combine(op ReduceOp, a, b int64) int64 {
	switch op {
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpFloatSum:
		s := math.Float64frombits(uint64(a)) + math.Float64frombits(uint64(b))
		return int64(math.Float64bits(s))
	default:
		return a + b
	}
}

// AllReduceFloat sums a float64 across all processors.
func (nd *Node) AllReduceFloat(p *sim.Proc, v float64) float64 {
	bits := nd.AllReduce(p, int64(math.Float64bits(v)), OpFloatSum)
	return math.Float64frombits(uint64(bits))
}

// AllReduce combines v across all processors and returns the result on
// every node, using a butterfly exchange when N is a power of two and a
// dissemination pattern otherwise (log N rounds either way).
func (nd *Node) AllReduce(p *sim.Proc, v int64, op ReduceOp) int64 {
	var out int64
	nd.comm(p, func() { out = nd.allReduce(p, v, op) })
	return out
}

func (nd *Node) allReduce(p *sim.Proc, v int64, op ReduceOp) int64 {
	n := nd.N()
	if n == 1 {
		return v
	}
	nd.redEp++
	ep := nd.redEp % 1024
	if n&(n-1) != 0 {
		return nd.allReduceCentral(p, v, op, ep)
	}
	self := nd.Self()
	acc := v
	var buf [8]byte
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		key := ep<<8 | uint32(round)
		dst := (self + dist) % n
		binary.BigEndian.PutUint64(buf[:], uint64(acc))
		nd.t.Send(p, dst, packArg(kindReduce, key), buf[:])
		for len(nd.redVals[key]) == 0 {
			nd.t.PollWait(p, time.Millisecond)
		}
		acc = combine(op, acc, nd.redVals[key][0])
		nd.redVals[key] = nd.redVals[key][1:]
		if len(nd.redVals[key]) == 0 {
			delete(nd.redVals, key)
		}
	}
	return acc
}

// allReduceCentral is the non-power-of-two fallback: gather to node 0,
// combine, broadcast.
func (nd *Node) allReduceCentral(p *sim.Proc, v int64, op ReduceOp, ep uint32) int64 {
	n, self := nd.N(), nd.Self()
	up := ep<<8 | 0xFE
	down := ep<<8 | 0xFF
	var buf [8]byte
	if self != 0 {
		binary.BigEndian.PutUint64(buf[:], uint64(v))
		nd.t.Send(p, 0, packArg(kindReduce, up), buf[:])
		for len(nd.redVals[down]) == 0 {
			nd.t.PollWait(p, time.Millisecond)
		}
		out := nd.redVals[down][0]
		delete(nd.redVals, down)
		return out
	}
	acc := v
	for got := 0; got < n-1; {
		for len(nd.redVals[up]) == 0 {
			nd.t.PollWait(p, time.Millisecond)
		}
		for _, x := range nd.redVals[up] {
			acc = combine(op, acc, x)
			got++
		}
		delete(nd.redVals, up)
	}
	binary.BigEndian.PutUint64(buf[:], uint64(acc))
	for dst := 1; dst < n; dst++ {
		nd.t.Send(p, dst, packArg(kindReduce, down), buf[:])
	}
	return acc
}

// Run spawns fn as the thread of control on every node and runs the
// simulation to completion, returning each node's elapsed time measured
// from a start barrier to its own finish.
func Run(nodes []*Node, fn func(p *sim.Proc, nd *Node)) []time.Duration {
	times := make([]time.Duration, len(nodes))
	for i, nd := range nodes {
		i, nd := i, nd
		nd.t.Spawn(fmt.Sprintf("splitc%d", i), func(p *sim.Proc) {
			nd.Barrier(p)
			start := p.Now()
			fn(p, nd)
			times[i] = p.Now() - start
		})
	}
	nodes[0].t.Engine().Run()
	return times
}
