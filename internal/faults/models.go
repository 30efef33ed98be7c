package faults

import (
	"math/rand"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
)

// IID drops cells independently with a fixed probability — the memoryless
// loss of a marginal fiber or an overrun FIFO.
type IID struct {
	rng   *rand.Rand
	rate  float64
	stats FaultStats
}

// NewIID returns an i.i.d. cell-loss injector for the named link.
func NewIID(seed int64, link string, rate float64) *IID {
	return &IID{rng: NewRand(seed, link), rate: rate}
}

// Judge implements fabric.Injector.
func (in *IID) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.rate > 0 && in.rng.Float64() < in.rate {
		in.stats.Dropped++
		return fabric.Verdict{Drop: true}
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *IID) Stats() FaultStats { return in.stats }

// GilbertElliott is the classic two-state burst-loss channel: a good
// state with loss probability lossGood and a bad state with lossBad,
// with per-cell transition probabilities pGB (good→bad) and pBG
// (bad→good). Runs in the bad state produce the correlated loss bursts
// that stress go-back-N windows far harder than i.i.d. loss of the same
// average rate.
type GilbertElliott struct {
	rng               *rand.Rand
	pGB, pBG          float64
	lossGood, lossBad float64
	bad               bool
	stats             FaultStats
}

// NewGilbertElliott returns a burst-loss injector for the named link.
func NewGilbertElliott(seed int64, link string, pGB, pBG, lossGood, lossBad float64) *GilbertElliott {
	return &GilbertElliott{rng: NewRand(seed, link), pGB: pGB, pBG: pBG, lossGood: lossGood, lossBad: lossBad}
}

// Judge implements fabric.Injector. The state transition is evaluated
// before the loss draw, so a burst can begin on the cell that triggers
// the transition.
func (in *GilbertElliott) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.bad {
		if in.rng.Float64() < in.pBG {
			in.bad = false
		}
	} else if in.rng.Float64() < in.pGB {
		in.bad = true
	}
	loss := in.lossGood
	if in.bad {
		loss = in.lossBad
	}
	if loss > 0 && in.rng.Float64() < loss {
		in.stats.Dropped++
		return fabric.Verdict{Drop: true}
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *GilbertElliott) Stats() FaultStats { return in.stats }

// Corruptor flips bits. A payload flip is delivered and left for the
// AAL5 CRC-32 to catch at reassembly; a header flip is pushed through
// the real 5-byte UNI codec — the HEC CRC-8 catches every single-bit
// header error, and receiving hardware discards such cells silently, so
// the verdict is a drop. (If a multi-bit future variant ever produced a
// decodable damaged header, the decoded routing fields would be used —
// a misrouted cell — which is why the codec round trip is real and not
// an assumption.)
type Corruptor struct {
	rng         *rand.Rand
	payloadRate float64
	headerRate  float64
	stats       FaultStats
}

// NewCorruptor returns a bit-corruption injector for the named link.
func NewCorruptor(seed int64, link string, payloadRate, headerRate float64) *Corruptor {
	return &Corruptor{rng: NewRand(seed, link), payloadRate: payloadRate, headerRate: headerRate}
}

// Judge implements fabric.Injector.
func (in *Corruptor) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.headerRate > 0 && in.rng.Float64() < in.headerRate {
		in.stats.HdrDamage++
		h := c.EncodeHeader()
		bit := in.rng.Intn(len(h) * 8)
		h[bit/8] ^= 1 << (bit % 8)
		dec, err := atm.DecodeHeader(h)
		if err != nil {
			// HEC mismatch (or non-canonical header): the receiver's framing
			// hardware discards the cell before it reaches any NIC model.
			in.stats.Dropped++
			return fabric.Verdict{Drop: true}
		}
		c.VCI, c.EOP, c.Direct = dec.VCI, dec.EOP, dec.Direct
	}
	if in.payloadRate > 0 && in.rng.Float64() < in.payloadRate {
		bit := in.rng.Intn(atm.PayloadSize * 8)
		c.Payload[bit/8] ^= 1 << (bit % 8)
		in.stats.Corrupted++
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *Corruptor) Stats() FaultStats { return in.stats }

// Duplicator re-delivers cells with a fixed probability, one extra copy
// a cell slot behind the original — the switch-reconfiguration ghost
// cells that exercise duplicate suppression above AAL5.
type Duplicator struct {
	rng   *rand.Rand
	rate  float64
	stats FaultStats
}

// NewDuplicator returns a duplication injector for the named link.
func NewDuplicator(seed int64, link string, rate float64) *Duplicator {
	return &Duplicator{rng: NewRand(seed, link), rate: rate}
}

// Judge implements fabric.Injector.
func (in *Duplicator) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.rate > 0 && in.rng.Float64() < in.rate {
		in.stats.Duplicate++
		return fabric.Verdict{Duplicate: true}
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *Duplicator) Stats() FaultStats { return in.stats }

// Jitter adds bounded extra delay to a fraction of cells. The link keeps
// arrivals monotonic (a fiber never reorders), so a jittered cell also
// delays the cells serialized behind it — head-of-line blocking, exactly
// what a slow path through a real switch fabric does.
type Jitter struct {
	rng   *rand.Rand
	rate  float64
	bound time.Duration
	stats FaultStats
}

// NewJitter returns a delay injector for the named link: with
// probability rate a cell's arrival is pushed back by a uniform draw
// from (0, bound].
func NewJitter(seed int64, link string, rate float64, bound time.Duration) *Jitter {
	return &Jitter{rng: NewRand(seed, link), rate: rate, bound: bound}
}

// Judge implements fabric.Injector.
func (in *Jitter) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.rate > 0 && in.bound > 0 && in.rng.Float64() < in.rate {
		in.stats.Delayed++
		return fabric.Verdict{Delay: time.Duration(in.rng.Int63n(int64(in.bound))) + 1}
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *Jitter) Stats() FaultStats { return in.stats }

// Flap models scheduled link-down/up episodes: every cell whose departure
// falls inside a down window is lost. The schedule is periodic and purely
// arithmetic — no events, no state — so a flapping link costs nothing
// when idle and stays deterministic at any shard count.
type Flap struct {
	period  time.Duration
	downFor time.Duration
	offset  time.Duration
	stats   FaultStats
}

// NewFlap returns a link-down injector: starting at offset, the link is
// down for downFor out of every period.
func NewFlap(period, downFor, offset time.Duration) *Flap {
	return &Flap{period: period, downFor: downFor, offset: offset}
}

// Down reports whether the link is down at virtual time t.
func (in *Flap) Down(t time.Duration) bool {
	if in.period <= 0 || in.downFor <= 0 || t < in.offset {
		return false
	}
	return (t-in.offset)%in.period < in.downFor
}

// Judge implements fabric.Injector.
func (in *Flap) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.Down(depart) {
		in.stats.Dropped++
		in.stats.DownDrops++
		return fabric.Verdict{Drop: true}
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *Flap) Stats() FaultStats { return in.stats }

// NthCell drops exactly the nth cell (1-based) it judges and nothing
// else — the deterministic single-loss probe the seeded-loss golden
// tests are built on.
type NthCell struct {
	n     uint64
	stats FaultStats
}

// NewNthCell returns an injector that drops only cell number n.
func NewNthCell(n uint64) *NthCell { return &NthCell{n: n} }

// Judge implements fabric.Injector.
func (in *NthCell) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.stats.Cells == in.n {
		in.stats.Dropped++
		return fabric.Verdict{Drop: true}
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *NthCell) Stats() FaultStats { return in.stats }

// DropIf is the injector that drops the cells the predicate picks: the
// probe for tests and examples that want one particular loss pattern
// rather than a seeded model. It keeps no accounting of its own; the
// link's CellsLost counts what it drops.
type DropIf func(atm.Cell) bool

// Judge implements fabric.Injector.
func (pred DropIf) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	return fabric.Verdict{Drop: pred(*c)} //unetlint:allow hotpathalloc caller-supplied predicate of a test probe, on no steady-state run; what it allocates is the test's budget
}

// NthCellCorrupt flips one payload bit of exactly the nth cell it
// judges: the deterministic probe for the receive-side CRC drop path
// (nic Stats.CrcDrops, pool recycling).
type NthCellCorrupt struct {
	n     uint64
	bit   int
	stats FaultStats
}

// NewNthCellCorrupt returns an injector that flips payload bit `bit` of
// cell number n.
func NewNthCellCorrupt(n uint64, bit int) *NthCellCorrupt {
	return &NthCellCorrupt{n: n, bit: bit % (atm.PayloadSize * 8)}
}

// Judge implements fabric.Injector.
func (in *NthCellCorrupt) Judge(c *atm.Cell, depart time.Duration) fabric.Verdict {
	in.stats.Cells++
	if in.stats.Cells == in.n {
		c.Payload[in.bit/8] ^= 1 << (in.bit % 8)
		in.stats.Corrupted++
	}
	return fabric.Verdict{}
}

// Stats implements Injector.
func (in *NthCellCorrupt) Stats() FaultStats { return in.stats }
