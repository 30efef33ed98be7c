package stats

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Count() != 64 {
		t.Fatalf("Count = %d, want 64", h.Count())
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("Min/Max = %d/%d, want 0/63", h.Min(), h.Max())
	}
	// Values below 64 are exact: every quantile returns the true sample.
	for v := int64(0); v < 64; v++ {
		q := (float64(v) + 1) / 64
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, v)
		}
	}
}

func TestHistogramIndexRoundTrip(t *testing.T) {
	// Bucket mapping is monotone and contiguous, and each value lies in
	// [lo, lo+width) of its own bucket.
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<20 + 1, 1 << 40, 1<<62 + 12345} {
		idx := histIndex(v)
		if idx <= prev && v != 0 {
			// Only equal-bucket collisions are allowed, never inversions.
			if idx < prev {
				t.Fatalf("index inversion at %d: %d < %d", v, idx, prev)
			}
		}
		lo := histValueLo(idx)
		if v < lo {
			t.Fatalf("value %d below its bucket floor %d (idx %d)", v, lo, idx)
		}
		if idx+1 < 1<<20 { // next bucket's floor bounds this bucket
			hi := histValueLo(idx + 1)
			if v >= hi {
				t.Fatalf("value %d at/above next bucket floor %d (idx %d)", v, hi, idx)
			}
		}
		prev = idx
	}
}

// TestHistogramQuantileErrorBound checks the advertised guarantee: rank
// selection is exact and the reported value is within 1/64 relative error
// of the true rank-selected sample.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]int64, 0, 200_000)
	for i := 0; i < 200_000; i++ {
		// Log-uniform over ~6 decades plus a heavy tail, like a latency mix.
		v := int64(1) << uint(rng.Intn(40))
		v += rng.Int63n(v + 1)
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999} {
		rank := int(q * float64(len(samples)))
		if float64(rank) < q*float64(len(samples)) {
			rank++
		}
		if rank == 0 {
			rank = 1
		}
		exact := samples[rank-1]
		got := h.Quantile(q)
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 1.0/64+1e-9 {
			t.Errorf("Quantile(%v) = %d, exact %d, rel err %.4f > 1/64", q, got, exact, relErr)
		}
	}
}

func TestHistogramMergeLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, a, b Histogram
	for i := 0; i < 50_000; i++ {
		v := rng.Int63n(1 << 30)
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged Count = %d, want %d", a.Count(), whole.Count())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged Min/Max = %d/%d, want %d/%d", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	if a.Mean() != whole.Mean() {
		t.Fatalf("merged Mean = %v, want %v", a.Mean(), whole.Mean())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 0.999, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merged Quantile(%v) = %d, want %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op; merging into empty copies.
	var empty, into Histogram
	a.Merge(&empty)
	if a.Count() != whole.Count() {
		t.Fatal("merging empty changed count")
	}
	into.Merge(&a)
	if into.Count() != a.Count() || into.Quantile(0.5) != a.Quantile(0.5) {
		t.Fatal("merge into empty lost samples")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	h.Record(-5) // clamps to 0
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative clamp: min=%d max=%d n=%d", h.Min(), h.Max(), h.Count())
	}
	h.Record(1_000_000)
	if h.Quantile(0) != 0 || h.Quantile(1) != 1_000_000 {
		t.Fatalf("q0/q1 = %d/%d", h.Quantile(0), h.Quantile(1))
	}
	h = Histogram{}
	h.RecordN(100, 3)
	if h.Count() != 3 || h.Quantile(0.5) != 100 {
		t.Fatalf("RecordN: n=%d q50=%d", h.Count(), h.Quantile(0.5))
	}
}
