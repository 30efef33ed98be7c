// Package apps contains the seven Split-C application benchmarks of paper
// §6: a blocked matrix multiply, sample sort optimized for small messages,
// the same sort optimized for bulk transfers, radix sorts in the same two
// variants, a connected-components algorithm, and a conjugate-gradient
// solver. Each runs unmodified on any splitc.Transport — the U-Net ATM
// cluster, the CM-5 model, or the Meiko CS-2 model — which is exactly how
// Figure 5 compares the machines.
//
// The programs do the real computation (results are verified by the test
// suite) while charging the simulation clock for compute phases via
// Node.Compute, so that the reported execution times reflect each
// machine's CPU speed and network characteristics rather than Go's.
package apps

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"unet/internal/sim"
	"unet/internal/splitc"
)

// Result reports one benchmark run.
type Result struct {
	// Time is the slowest processor's elapsed time (the benchmark time).
	Time time.Duration
	// PerNode, Comm and Compute break the run down per processor.
	PerNode []time.Duration
	Comm    []time.Duration
	Compute []time.Duration
}

// collect assembles a Result from splitc.Run output.
func collect(nodes []*splitc.Node, times []time.Duration) Result {
	r := Result{PerNode: times}
	for _, t := range times {
		if t > r.Time {
			r.Time = t
		}
	}
	for _, nd := range nodes {
		r.Comm = append(r.Comm, nd.CommTime())
		r.Compute = append(r.Compute, nd.ComputeTime())
	}
	return r
}

// MaxComm returns the largest per-node communication time.
func (r Result) MaxComm() time.Duration {
	var m time.Duration
	for _, c := range r.Comm {
		if c > m {
			m = c
		}
	}
	return m
}

// MaxCompute returns the largest per-node computation time.
func (r Result) MaxCompute() time.Duration {
	var m time.Duration
	for _, c := range r.Compute {
		if c > m {
			m = c
		}
	}
	return m
}

// rng returns a node-local deterministic random source.
func rng(seed, node int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1000003 + int64(node)*7919)) //unetlint:allow nondeterminism the stream is a pure function of (Seed, node); drawing it from faults.NewRand would change the sorted inputs and the Fig. 5 row
}

// argEOD marks the per-pair end-of-data message used by the all-to-all
// phases. Pairwise FIFO ordering makes it a channel flush: once a node has
// an EOD from every peer, all data sent to it in the phase has arrived.
const argEOD = 0xEEEEEE

// eodTracker counts end-of-data markers.
type eodTracker struct {
	nd   *splitc.Node
	seen int
}

// sendAll announces end-of-data to every peer.
func (e *eodTracker) sendAll(p *sim.Proc) {
	n, self := e.nd.N(), e.nd.Self()
	for d := 0; d < n; d++ {
		if d != self {
			e.nd.Send(p, d, argEOD, nil)
		}
	}
}

// wait polls until every peer's EOD arrived, then resets for the next
// phase.
func (e *eodTracker) wait(p *sim.Proc) {
	for e.seen < e.nd.N()-1 {
		e.nd.PollWait(p, time.Millisecond)
	}
	e.seen = 0
}

// f64sToBytes and bytesToF64s serialize block data for bulk transfers.
func f64sToBytes(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func bytesToF64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out
}

// u32sToBytes and bytesToU32s serialize key arrays.
func u32sToBytes(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.BigEndian.PutUint32(out[4*i:], x)
	}
	return out
}

func bytesToU32s(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return out
}
