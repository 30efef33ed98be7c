package faults

import "time"

// Plan is a declarative impairment configuration for a whole testbed:
// the same model parameters stamped onto every link, with statistically
// independent (but individually deterministic) per-link PRNG streams
// derived from Seed and the link name. The zero Plan is a perfect wire.
type Plan struct {
	// Seed is the fault seed every per-link PRNG stream derives from.
	Seed int64

	// LossRate is the i.i.d. per-cell drop probability.
	LossRate float64

	// BurstPGB/BurstPBG/BurstLoss parameterize Gilbert–Elliott burst loss:
	// good→bad and bad→good transition probabilities per cell, and the
	// drop probability while in the bad state (the good state is
	// loss-free; combine with LossRate for residual background loss).
	BurstPGB  float64
	BurstPBG  float64
	BurstLoss float64

	// CorruptRate/HdrCorruptRate are per-cell payload and header bit-flip
	// probabilities (payload flips are caught by the AAL5 CRC-32 at
	// reassembly, header flips by the HEC CRC-8 at the receiver).
	CorruptRate    float64
	HdrCorruptRate float64

	// DupRate is the per-cell duplication probability.
	DupRate float64

	// JitterRate/JitterBound: with probability JitterRate a cell's arrival
	// slips by a uniform draw from (0, JitterBound].
	JitterRate  float64
	JitterBound time.Duration

	// FlapPeriod/FlapDown/FlapOffset schedule link-down episodes: starting
	// at FlapOffset, each link is dead for FlapDown out of every
	// FlapPeriod.
	FlapPeriod time.Duration
	FlapDown   time.Duration
	FlapOffset time.Duration

	// SwitchQueueCells bounds each switch output queue (tail drop on
	// overflow). 0 keeps the seed's unbounded queues.
	SwitchQueueCells int
}

// Enabled reports whether the plan impairs links at all (the switch
// queue bound is separate: it applies even to an otherwise clean plan).
func (pl Plan) Enabled() bool {
	return pl.LossRate > 0 || pl.BurstPGB > 0 || pl.CorruptRate > 0 ||
		pl.HdrCorruptRate > 0 || pl.DupRate > 0 || pl.JitterRate > 0 ||
		(pl.FlapPeriod > 0 && pl.FlapDown > 0)
}

// Build assembles the plan's injector chain for one link, or nil when
// the plan leaves links untouched. Each enabled model gets its own PRNG
// stream (seed ⊕ hash(link) ⊕ model salt) so toggling one model never
// re-randomizes another.
func (pl Plan) Build(link string) *Chain {
	if !pl.Enabled() {
		return nil
	}
	var injs []Injector
	if pl.FlapPeriod > 0 && pl.FlapDown > 0 {
		injs = append(injs, NewFlap(pl.FlapPeriod, pl.FlapDown, pl.FlapOffset))
	}
	if pl.LossRate > 0 {
		injs = append(injs, NewIID(pl.Seed^0x11, link, pl.LossRate))
	}
	if pl.BurstPGB > 0 {
		injs = append(injs, NewGilbertElliott(pl.Seed^0x22, link, pl.BurstPGB, pl.BurstPBG, 0, pl.BurstLoss))
	}
	if pl.CorruptRate > 0 || pl.HdrCorruptRate > 0 {
		injs = append(injs, NewCorruptor(pl.Seed^0x33, link, pl.CorruptRate, pl.HdrCorruptRate))
	}
	if pl.DupRate > 0 {
		injs = append(injs, NewDuplicator(pl.Seed^0x44, link, pl.DupRate))
	}
	if pl.JitterRate > 0 && pl.JitterBound > 0 {
		injs = append(injs, NewJitter(pl.Seed^0x55, link, pl.JitterRate, pl.JitterBound))
	}
	return NewChain(injs...)
}
