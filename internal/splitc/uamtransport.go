package splitc

import (
	"encoding/binary"
	"fmt"
	"time"

	"unet/internal/sim"
	"unet/internal/uam"
	"unet/internal/unet"
)

// UAM handler indices used by the Split-C transport.
const (
	hSend = 10 // one-way small message: [arg u32][data]
	hRPC  = 11 // request: [token u32][arg u32][data]
	hRPCR = 12 // reply:   [token u32][arg u32][data]
	hBulk = 13 // bulk chunk; UAM arg = total length on the first chunk
)

// UAMTransport runs Split-C over U-Net Active Messages on the simulated
// ATM cluster — the configuration the paper evaluates in §6.
type UAMTransport struct {
	am   *uam.UAM
	host *unet.Host
	cpu  float64
	size int

	onReq  RequestHandler
	onBulk BulkHandler

	nextTok uint32
	rpcs    map[uint32]*rpcResult

	bulkIn map[int]*bulkAssembly
}

type rpcResult struct {
	done bool
	arg  uint32
	data []byte
}

type bulkAssembly struct {
	remaining int
	buf       []byte
}

// UAMCPUFactor is the ATM cluster's relative processor speed: a mix of 50
// and 60 MHz SuperSPARCs (Table 2), slightly below the 60 MHz baseline and
// slightly above the Meiko's 40 MHz parts.
const UAMCPUFactor = 0.92

// NewUAMTransport wraps a UAM instance (node ids must match Split-C
// processor numbers 0..N-1 and instances must be fully connected).
func NewUAMTransport(am *uam.UAM, host *unet.Host, nnodes int) *UAMTransport {
	t := &UAMTransport{
		am:     am,
		host:   host,
		cpu:    UAMCPUFactor,
		rpcs:   make(map[uint32]*rpcResult),
		bulkIn: make(map[int]*bulkAssembly),
	}
	t.size = nnodes
	am.RegisterHandler(hSend, t.handleSend)
	am.RegisterHandler(hRPC, t.handleRPC)
	am.RegisterHandler(hRPCR, t.handleRPCR)
	am.RegisterHandler(hBulk, t.handleBulk)
	return t
}

// Self returns the node id.
func (t *UAMTransport) Self() int { return t.am.Node() }

// Size returns the machine width.
func (t *UAMTransport) Size() int { return t.size }

// SetRequestHandler installs the small-message dispatch target.
func (t *UAMTransport) SetRequestHandler(fn RequestHandler) { t.onReq = fn }

// SetBulkHandler installs the bulk dispatch target.
func (t *UAMTransport) SetBulkHandler(fn BulkHandler) { t.onBulk = fn }

// CPU reports the relative processor speed.
func (t *UAMTransport) CPU() float64 { return t.cpu }

// Engine returns the simulation engine.
func (t *UAMTransport) Engine() *sim.Engine { return t.host.Eng }

// Spawn starts a process on the node's host.
func (t *UAMTransport) Spawn(name string, fn func(*sim.Proc)) *sim.Proc {
	return t.host.Spawn(name, fn)
}

// Send transmits a one-way small message.
func (t *UAMTransport) Send(p *sim.Proc, dst int, arg uint32, data []byte) {
	buf := make([]byte, 4+len(data))
	binary.BigEndian.PutUint32(buf, arg)
	copy(buf[4:], data)
	if err := t.am.Request(p, dst, hSend, 0, buf); err != nil {
		panic(fmt.Sprintf("splitc: send to %d: %v", dst, err))
	}
}

func (t *UAMTransport) handleSend(u *uam.UAM, p *sim.Proc, src int, _ uint32, data []byte) {
	arg := binary.BigEndian.Uint32(data)
	if t.onReq != nil {
		t.onReq(p, src, arg, data[4:])
	}
}

// RPC performs a blocking request/reply exchange.
func (t *UAMTransport) RPC(p *sim.Proc, dst int, arg uint32, data []byte) (uint32, []byte) {
	t.nextTok++
	tok := t.nextTok
	res := &rpcResult{}
	t.rpcs[tok] = res
	buf := make([]byte, 8+len(data))
	binary.BigEndian.PutUint32(buf, tok)
	binary.BigEndian.PutUint32(buf[4:], arg)
	copy(buf[8:], data)
	if err := t.am.Request(p, dst, hRPC, 0, buf); err != nil {
		panic(fmt.Sprintf("splitc: rpc to %d: %v", dst, err))
	}
	for !res.done {
		t.am.PollWait(p, time.Millisecond)
	}
	delete(t.rpcs, tok)
	return res.arg, res.data
}

func (t *UAMTransport) handleRPC(u *uam.UAM, p *sim.Proc, src int, _ uint32, data []byte) {
	tok := binary.BigEndian.Uint32(data)
	arg := binary.BigEndian.Uint32(data[4:])
	var rarg uint32
	var rdata []byte
	if t.onReq != nil {
		rarg, rdata = t.onReq(p, src, arg, data[8:])
	}
	buf := make([]byte, 8+len(rdata))
	binary.BigEndian.PutUint32(buf, tok)
	binary.BigEndian.PutUint32(buf[4:], rarg)
	copy(buf[8:], rdata)
	if err := u.Reply(p, hRPCR, 0, buf); err != nil {
		panic(err)
	}
}

func (t *UAMTransport) handleRPCR(u *uam.UAM, p *sim.Proc, src int, _ uint32, data []byte) {
	tok := binary.BigEndian.Uint32(data)
	res, ok := t.rpcs[tok]
	if !ok {
		return
	}
	res.arg = binary.BigEndian.Uint32(data[4:])
	res.data = append([]byte(nil), data[8:]...)
	res.done = true
}

// Bulk streams a block transfer as in-order UAM requests; the first chunk
// announces the total length.
func (t *UAMTransport) Bulk(p *sim.Proc, dst int, data []byte) {
	chunkMax := 4096
	sent := 0
	first := true
	for {
		chunk := len(data) - sent
		if chunk > chunkMax {
			chunk = chunkMax
		}
		arg := uint32(0)
		if first {
			arg = uint32(len(data))
			first = false
		}
		if err := t.am.Request(p, dst, hBulk, arg, data[sent:sent+chunk]); err != nil {
			panic(fmt.Sprintf("splitc: bulk to %d: %v", dst, err))
		}
		sent += chunk
		if sent >= len(data) {
			return
		}
	}
}

func (t *UAMTransport) handleBulk(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
	as := t.bulkIn[src]
	if as == nil || as.remaining == 0 {
		as = &bulkAssembly{remaining: int(arg), buf: make([]byte, 0, arg)}
		t.bulkIn[src] = as
	}
	as.buf = append(as.buf, data...)
	as.remaining -= len(data)
	if as.remaining <= 0 {
		buf := as.buf
		as.remaining = 0
		as.buf = nil
		if t.onBulk != nil {
			t.onBulk(p, src, buf)
		}
	}
}

// Poll dispatches pending arrivals.
func (t *UAMTransport) Poll(p *sim.Proc) { t.am.Poll(p) }

// PollWait blocks up to d for arrivals.
func (t *UAMTransport) PollWait(p *sim.Proc, d time.Duration) { t.am.PollWait(p, d) }

// Flush waits for all outgoing traffic to be acknowledged.
func (t *UAMTransport) Flush(p *sim.Proc) { t.am.FlushAll(p) }
