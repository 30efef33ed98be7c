package experiments

import (
	"testing"
	"time"
)

// serveTestCfg is a small, fast serve scenario shared by the determinism
// tests below.
func serveTestCfg() ServeConfig {
	return ServeConfig{
		ClientHosts:    4,
		Servers:        2,
		LogicalPerHost: 256,
		Rate:           60_000,
		Duration:       5 * time.Millisecond,
	}
}

// TestServeShardIdentical pins the serve report byte-identical across shard
// layouts (and bursty arrivals along the way).
func TestServeShardIdentical(t *testing.T) {
	for _, bursty := range []bool{false, true} {
		var want string
		for _, shards := range []int{0, 2, 4, 8} {
			cfg := serveTestCfg()
			cfg.Bursty = bursty
			cfg.Shards = shards
			got := Serve(cfg).Line()
			if shards == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("bursty=%v shards=%d report diverged:\nserial: %s\nshard:  %s",
					bursty, shards, want, got)
			}
		}
	}
}

// TestServeKneeCalibration pins the saturation knee of the default serve
// cluster (6 client hosts, 2 servers, 2µs service time): offered load below
// the knee keeps open-loop p99 in the low hundreds of microseconds, while
// load past the knee pushes it beyond the tolerance threshold. The band
// (60k req/s healthy, 100k req/s saturated, 1ms threshold) was calibrated
// empirically; a capacity regression in the serving path moves the knee and
// trips it.
func TestServeKneeCalibration(t *testing.T) {
	threshold := int64(time.Millisecond)

	below := Serve(ServeConfig{Rate: 60_000})
	if below.Dropped != 0 || below.Replied != below.Sent {
		t.Errorf("below knee: sent=%d replied=%d dropped=%d", below.Sent, below.Replied, below.Dropped)
	}
	if p99 := below.Latency.Quantile(0.99); p99 >= threshold {
		t.Errorf("below knee: p99 = %v, want < %v", time.Duration(p99), time.Duration(threshold))
	}

	above := Serve(ServeConfig{Rate: 100_000})
	if p99 := above.Latency.Quantile(0.99); p99 <= threshold {
		t.Errorf("above knee: p99 = %v, want > %v", time.Duration(p99), time.Duration(threshold))
	}
}
