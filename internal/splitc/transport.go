// Package splitc implements a Split-C-style runtime (paper §6): one thread
// of control per processor interacting through a global address space
// abstraction — small remote accesses that compile down to Active Message
// request/reply exchanges, and bulk transfers that map to block stores and
// gets.
//
// The runtime is written against the Transport interface so the same seven
// application benchmarks run unmodified over (a) the U-Net ATM cluster via
// U-Net Active Messages and (b) the CM-5 and Meiko CS-2 machine models of
// internal/machine, reproducing the three-way comparison of Figure 5 with
// the machine characteristics of Table 2.
package splitc

import (
	"time"

	"unet/internal/sim"
)

// RequestHandler processes an incoming small message. For RPCs the
// returned (arg, data) pair travels back to the caller; one-way sends
// ignore the return values.
type RequestHandler func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte)

// BulkHandler receives a completed bulk transfer.
type BulkHandler func(p *sim.Proc, src int, data []byte)

// Transport is the communication substrate a Split-C node runs over.
// Implementations must deliver messages reliably and, between any pair of
// nodes, in order. All calls are made from the node's own simulated
// process; handlers are dispatched during Poll/PollWait (and while
// blocking inside RPC and Flush).
type Transport interface {
	// Self and Size identify the node and the machine width.
	Self() int
	Size() int
	// SetRequestHandler and SetBulkHandler install the dispatch targets;
	// the runtime owns them and multiplexes application traffic.
	SetRequestHandler(fn RequestHandler)
	SetBulkHandler(fn BulkHandler)
	// RPC sends a request and waits — polling, so handlers keep running —
	// for the matching reply.
	RPC(p *sim.Proc, dst int, arg uint32, data []byte) (uint32, []byte)
	// Send is a one-way small message.
	Send(p *sim.Proc, dst int, arg uint32, data []byte)
	// Bulk is a one-way block transfer.
	Bulk(p *sim.Proc, dst int, data []byte)
	// Poll dispatches pending arrivals without blocking; PollWait blocks
	// up to d for the first one.
	Poll(p *sim.Proc)
	PollWait(p *sim.Proc, d time.Duration)
	// Flush blocks until every message this node sent has been delivered
	// (or acknowledged, for transports that buffer for retransmission).
	Flush(p *sim.Proc)
	// CPU is the node's relative compute speed (1.0 = the paper's 60 MHz
	// SuperSPARC workstation).
	CPU() float64
	// Spawn starts the node's thread of control on its processor.
	Spawn(name string, fn func(*sim.Proc)) *sim.Proc
	// Engine exposes the simulation engine driving this transport.
	Engine() *sim.Engine
}
