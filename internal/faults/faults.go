// Package faults is the deterministic fault-injection subsystem: seeded
// wire impairments that plug into fabric links via the fabric.Injector
// hook (DESIGN.md §11).
//
// The paper's Active Messages layer leans on ATM being "highly reliable"
// (§4): loss is rare, so UAM ships a simple window/retransmit scheme and
// TCP its standard machinery. On a perfect simulated wire those recovery
// paths are dead code. This package makes the wire imperfect — cell loss
// (i.i.d. and Gilbert–Elliott bursts), payload and header bit corruption
// (caught by the real AAL5 CRC-32 and HEC CRC-8 codecs), bounded-jitter
// delay, duplication, and scheduled link-down episodes — while keeping
// every run exactly reproducible.
//
// Determinism contract: an injector owns a *rand.Rand seeded from the
// fault seed and the link's name (DeriveSeed), and consumes it only
// inside Judge. Each link has a single transmitting process, so the
// sequence of Judge calls it sees is the link's cell order — which the
// sharded conservative protocol already guarantees is independent of
// shard count. Injectors therefore never touch the engine's RNG (whose
// streams are per-shard) or the wall clock, and they charge no virtual
// time: impairments reshape the delivery schedule, they never stall the
// transmitter. The nondeterminism and costcharge analyzers machine-check
// both halves of this contract for the package.
package faults

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
)

// Injector is a fabric injector that also reports impairment accounting.
type Injector interface {
	fabric.Injector
	Stats() FaultStats
}

// FaultStats counts one injector's impairment decisions.
type FaultStats struct {
	Cells     uint64 // cells judged
	Dropped   uint64 // cells discarded (loss, bursts, header damage, link down)
	Corrupted uint64 // cells with payload bits flipped (delivered; AAL5 CRC catches them)
	HdrDamage uint64 // cells with header bits flipped (HEC discards them at the receiver)
	Duplicate uint64 // cells delivered twice
	Delayed   uint64 // cells given extra jitter delay
	DownDrops uint64 // subset of Dropped: cells lost to link-down episodes
}

// add merges s2 into s (Cells is owned by the chain, so it is excluded).
func (s *FaultStats) add(s2 FaultStats) {
	s.Dropped += s2.Dropped
	s.Corrupted += s2.Corrupted
	s.HdrDamage += s2.HdrDamage
	s.Duplicate += s2.Duplicate
	s.Delayed += s2.Delayed
	s.DownDrops += s2.DownDrops
}

// DeriveSeed maps a plan seed and a link name to that link's PRNG seed.
// Hashing the name (stable across runs and shard counts) rather than a
// construction index keeps per-link fault streams identical no matter how
// the testbed is partitioned.
func DeriveSeed(seed int64, link string) int64 {
	h := fnv.New64a()
	h.Write([]byte(link))
	return seed ^ int64(h.Sum64())
}

// NewRand returns the seeded PRNG for one injector on one link. It is the
// one place a model's private stream may start: the seed goes through
// DeriveSeed, so the stream depends on the plan and the name and on nothing
// else.
//
//unetlint:allow nondeterminism the root of every per-name stream; its seed is DeriveSeed's, a function of the plan seed and a stable name
func NewRand(seed int64, link string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, link)))
}

// VCIDrops is one VCI's tail of the per-VCI drop accounting.
type VCIDrops struct {
	VCI   atm.VCI
	Drops uint64
}

// Chain composes injectors in order over each cell. A drop verdict
// short-circuits the rest of the chain (the cell is gone; later models
// never see it), delays add, and duplication is sticky. The chain keeps
// the per-VCI drop accounting that testbeds surface.
type Chain struct {
	injs   []Injector
	cells  uint64
	perVCI map[atm.VCI]uint64
}

// NewChain composes injectors into one. The chain's Stats sums theirs.
func NewChain(injs ...Injector) *Chain {
	return &Chain{injs: injs, perVCI: make(map[atm.VCI]uint64)}
}

// Judge implements fabric.Injector.
func (ch *Chain) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	ch.cells++
	var v fabric.Verdict
	for _, in := range ch.injs {
		w := in.Judge(c, depart)
		if w.Drop {
			ch.perVCI[c.VCI]++
			v.Drop = true
			return v
		}
		v.Duplicate = v.Duplicate || w.Duplicate
		v.Delay += w.Delay
	}
	return v
}

// Stats sums the chained injectors' accounting under the chain's judged
// cell count.
func (ch *Chain) Stats() FaultStats {
	s := FaultStats{Cells: ch.cells}
	for _, in := range ch.injs {
		s.add(in.Stats())
	}
	return s
}

// PerVCIDrops returns the dropped-cell count per VCI in ascending VCI
// order (collect-and-sort keeps the map iteration order-invisible).
func (ch *Chain) PerVCIDrops() []VCIDrops {
	keys := make([]atm.VCI, 0, len(ch.perVCI))
	for vci := range ch.perVCI {
		keys = append(keys, vci)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]VCIDrops, len(keys))
	for i, vci := range keys {
		out[i] = VCIDrops{VCI: vci, Drops: ch.perVCI[vci]}
	}
	return out
}
