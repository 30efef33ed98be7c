package stats

import "math/bits"

// Histogram is a streaming log-bucketed histogram of non-negative int64
// samples (latencies in nanoseconds), in the style of HdrHistogram. Values
// below 64 land in exact unit buckets; above that each power-of-two octave
// is split into 32 sub-buckets, so the bucket containing a value is never
// wider than value/32 and a quantile read off the bucket midpoint carries
// at most ~1.56% (1/64) relative error. Counts are exact, so rank selection
// (which sample a quantile names) is exact; only the reported value is
// quantized. Recording is O(1) with no allocation once the counts array has
// grown to cover the observed range (at most ~1.9k buckets for all of
// int64), and histograms recorded independently merge losslessly.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // 64: values below this are exact
	histSubHalf  = histSubCount / 2
)

// histIndex maps a non-negative value to its bucket index. The mapping is
// monotone and contiguous: value 63 is the last unit bucket and value 64
// opens the first split octave.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	b := bits.Len64(uint64(v)) - histSubBits
	s := int(v >> uint(b)) // in [histSubHalf, histSubCount)
	return b*histSubHalf + s
}

// histValueLo returns the smallest value mapping to bucket idx.
func histValueLo(idx int) int64 {
	if idx < histSubHalf {
		return int64(idx)
	}
	b := idx/histSubHalf - 1
	s := idx - b*histSubHalf
	return int64(s) << uint(b)
}

// histValueMid returns the representative (midpoint) value of bucket idx.
func histValueMid(idx int) int64 {
	if idx < histSubHalf {
		return int64(idx)
	}
	b := idx/histSubHalf - 1
	lo := histValueLo(idx)
	return lo + (int64(1)<<uint(b))/2
}

// Record adds one sample. Negative values clamp to zero.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n samples of the same value.
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := histIndex(v)
	if idx >= len(h.counts) {
		grown := make([]uint64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx] += n
	h.sum += v * int64(n)
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total += n
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the exact smallest recorded value (0 if empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest recorded value (0 if empty).
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns the value at quantile q in [0, 1]: the bucket midpoint of
// the sample with (1-based) rank ceil(q·count), clamped to the exact
// observed [Min, Max]. Rank selection is exact; the value is quantized to
// its bucket, so the result is within 1/64 relative error of the true
// sample. q ≤ 0 returns Min, q ≥ 1 returns Max; an empty histogram returns
// 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if float64(rank) < q*float64(h.total) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for idx, c := range h.counts {
		cum += c
		if cum >= rank {
			v := histValueMid(idx)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds every sample recorded in o into h. Merging is lossless: the
// result is bucket-for-bucket identical to recording both sample streams
// into one histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for idx, c := range o.counts {
		h.counts[idx] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.total == 0 || o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}
