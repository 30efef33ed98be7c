package testbed

import (
	"testing"
	"time"

	"unet/internal/faults"
	"unet/internal/unet"
)

// TestPingPongThatDoesNotFinish: once the link is cut for good, a ping-pong
// never completes its rounds, and it measures 0 — not the difference between
// a start it took and an end it never reached.
func TestPingPongThatDoesNotFinish(t *testing.T) {
	for _, cut := range []time.Duration{0, 200 * time.Microsecond} {
		tb := New(Config{Hosts: 2, Faults: &faults.Plan{FlapPeriod: time.Hour, FlapDown: time.Hour, FlapOffset: cut}})
		pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 32)
		if err != nil {
			t.Fatal(err)
		}
		if rtt := pr.PingPong(20, 32); rtt != 0 {
			t.Errorf("link cut at %v: PingPong = %v, want 0", cut, rtt)
		}
		tb.Close()
	}
}
