package apps

import (
	"math/bits"
	"sort"
	"time"

	"unet/internal/sim"
	"unet/internal/splitc"
)

// SortConfig sizes the sorting benchmarks. The paper sorts 4M 32-bit
// integers with arbitrary distribution on 8 processors; the test default
// scales down.
type SortConfig struct {
	// KeysPerNode is the local key count.
	KeysPerNode int
	// Oversample is the number of samples per processor used to pick
	// splitters.
	Oversample int
	// Seed drives the deterministic key generation.
	Seed int
}

// PaperSortConfig returns the paper's 4M-key configuration for 8 nodes.
func PaperSortConfig() SortConfig {
	return SortConfig{KeysPerNode: 4 << 20 / 8, Oversample: 64, Seed: 1}
}

// sort message args.
const (
	argKeys     = 3 // small-message key batch (packed pairs)
	argSamples  = 4
	argSplitter = 5
)

type sortNode struct {
	nd   *splitc.Node
	cfg  SortConfig
	keys []uint32

	eod       eodTracker
	incoming  []uint32
	samples   []uint32
	splitters []uint32
}

// KeysForNode regenerates a node's deterministic input keys, letting the
// test suite verify the distributed sorts against the original data.
func KeysForNode(cfg SortConfig, node int) []uint32 {
	r := rng(cfg.Seed, node)
	keys := make([]uint32, cfg.KeysPerNode)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	return keys
}

func (s *sortNode) setup() {
	s.keys = KeysForNode(s.cfg, s.nd.Self())
	s.eod = eodTracker{nd: s.nd}
	s.nd.OnSmall(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
		switch arg {
		case argEOD:
			s.eod.seen++
		case argKeys:
			s.incoming = append(s.incoming, bytesToU32s(data)...)
		case argSamples:
			s.samples = append(s.samples, bytesToU32s(data)...)
		case argSplitter:
			s.splitters = append(s.splitters, bytesToU32s(data)...)
		}
		return 0, nil
	})
	s.nd.OnBulk(func(p *sim.Proc, src int, data []byte) {
		s.incoming = append(s.incoming, bytesToU32s(data)...)
	})
}

// localSort sorts v, charging n·log2(n) comparison steps.
func (s *sortNode) localSort(p *sim.Proc, v []uint32) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	n := len(v)
	if n > 1 {
		s.nd.ComputeOps(p, n*bits.Len(uint(n)), splitc.IntOpCost)
	}
}

// chooseSplitters runs the sampling phase: every node sends Oversample
// random keys to node 0, which sorts them and broadcasts N-1 splitters.
func (s *sortNode) chooseSplitters(p *sim.Proc) {
	n, self := s.nd.N(), s.nd.Self()
	r := rng(s.cfg.Seed+77, self)
	mine := make([]uint32, s.cfg.Oversample)
	for i := range mine {
		mine[i] = s.keys[r.Intn(len(s.keys))]
	}
	if self == 0 {
		s.samples = append(s.samples, mine...)
		for len(s.samples) < n*s.cfg.Oversample {
			s.nd.PollWait(p, time.Millisecond)
		}
		s.localSort(p, s.samples)
		spl := make([]uint32, n-1)
		for i := range spl {
			spl[i] = s.samples[(i+1)*len(s.samples)/n]
		}
		s.splitters = spl
		for d := 1; d < n; d++ {
			s.nd.Send(p, d, argSplitter, u32sToBytes(spl))
		}
		return
	}
	// Samples travel in small batches to stay under the small-message cap.
	for i := 0; i < len(mine); i += 4 {
		hi := min(i+4, len(mine))
		s.nd.Send(p, 0, argSamples, u32sToBytes(mine[i:hi]))
	}
	for len(s.splitters) < n-1 {
		s.nd.PollWait(p, time.Millisecond)
	}
}

// destOf returns the destination processor of key k under the splitters.
func (s *sortNode) destOf(k uint32) int {
	lo, hi := 0, len(s.splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if k < s.splitters[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// permuteSmall sends every key to its destination packed two values per
// message — the small-message-optimized version of §6.
func (s *sortNode) permuteSmall(p *sim.Proc) {
	self := s.nd.Self()
	pending := make([][]uint32, s.nd.N())
	for _, k := range s.keys {
		d := s.destOf(k)
		if d == self {
			s.incoming = append(s.incoming, k)
			continue
		}
		pending[d] = append(pending[d], k)
		if len(pending[d]) == 2 {
			s.nd.Send(p, d, argKeys, u32sToBytes(pending[d]))
			pending[d] = pending[d][:0]
		}
	}
	for d, v := range pending { // ascending destination: the flush order feeds the event schedule
		if len(v) > 0 {
			s.nd.Send(p, d, argKeys, u32sToBytes(v))
		}
	}
	s.nd.ComputeOps(p, len(s.keys)*5, splitc.IntOpCost) // splitter search per key
	s.eod.sendAll(p)
	s.eod.wait(p)
}

// permuteBulk pre-buckets the local keys and sends exactly one bulk
// message per destination — the bulk-transfer-optimized version of §6.
func (s *sortNode) permuteBulk(p *sim.Proc) {
	self := s.nd.Self()
	buckets := make([][]uint32, s.nd.N())
	for _, k := range s.keys {
		d := s.destOf(k)
		buckets[d] = append(buckets[d], k)
	}
	s.nd.ComputeOps(p, len(s.keys)*5, splitc.IntOpCost)
	s.incoming = append(s.incoming, buckets[self]...)
	for d := 0; d < s.nd.N(); d++ {
		if d != self {
			s.nd.Bulk(p, d, u32sToBytes(buckets[d]))
		}
	}
	s.eod.sendAll(p)
	s.eod.wait(p)
}

func (s *sortNode) runSample(p *sim.Proc, bulk bool) {
	s.chooseSplitters(p)
	s.nd.Barrier(p)
	if bulk {
		s.permuteBulk(p)
	} else {
		s.permuteSmall(p)
	}
	s.localSort(p, s.incoming)
	s.nd.Barrier(p)
}

// RunSampleSort executes the sample sort; bulk selects the bulk-transfer
// variant. It returns the timing result and each node's sorted partition
// for verification.
func RunSampleSort(nodes []*splitc.Node, cfg SortConfig, bulk bool) (Result, [][]uint32) {
	ss := make([]*sortNode, len(nodes))
	for i, nd := range nodes {
		ss[i] = &sortNode{nd: nd, cfg: cfg}
		ss[i].setup()
	}
	times := splitc.Run(nodes, func(p *sim.Proc, nd *splitc.Node) {
		ss[nd.Self()].runSample(p, bulk)
	})
	out := make([][]uint32, len(nodes))
	for i, s := range ss {
		out[i] = s.incoming
	}
	return collect(nodes, times), out
}
