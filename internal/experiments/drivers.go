// Package experiments contains the measurement drivers and the per-table /
// per-figure harnesses that regenerate every result in the paper's
// evaluation (Tables 1-3, Figures 3-9), and All, the one table of them
// that cmd/unetbench, the golden tests and BenchmarkExperiments iterate —
// so the CLI, the goldens and `go test -bench` see the same rows.
package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"unet/internal/faults"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
	"unet/internal/unet"
)

// RawRTT measures the raw U-Net round-trip time for size-byte messages on
// an SBA-200 pair (Figure 3, "Raw U-Net").
func RawRTT(nicp nic.Params, size, rounds int) time.Duration {
	tb := testbed.New(testbed.Config{Hosts: 2, NIC: &nicp, Shards: shardCount()})
	defer tb.Close()
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 32)
	if err != nil {
		panic(err)
	}
	return pr.PingPong(rounds, size)
}

// RawBandwidth measures raw U-Net streaming bandwidth (Figure 4, "Raw
// U-Net").
func RawBandwidth(nicp nic.Params, size, count int) testbed.StreamResult {
	tb := testbed.New(testbed.Config{Hosts: 2, NIC: &nicp, Shards: shardCount()})
	defer tb.Close()
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 32)
	if err != nil {
		panic(err)
	}
	return pr.Stream(count, size)
}

// uamPair builds two connected UAM nodes over a fabric impaired by plan
// (nil is the perfect wire). The caller owns tb.Close.
func uamPair(cfg uam.Config, plan *faults.Plan) (*testbed.Testbed, *uam.UAM, *uam.UAM) {
	tb := testbed.New(testbed.Config{Hosts: 2, Shards: shardCount(), Faults: plan})
	a, err := uam.New(tb.Hosts[0].NewProcess("am"), 0, cfg)
	mustNoErr(err, "uam node 0")
	b, err := uam.New(tb.Hosts[1].NewProcess("am"), 1, cfg)
	mustNoErr(err, "uam node 1")
	mustNoErr(uam.Connect(tb.Manager, a, b), "uam connect")
	return tb, a, b
}

// serveUntilDone spawns the passive side of a UAM measurement on host 1:
// UAM is user-level and only acknowledges while polled, so b polls until
// the measuring side calls done. The flag behind done crosses hosts — and,
// when sharded, goroutines; it flips only after the measurement is
// complete, so it never perturbs timing.
func serveUntilDone(tb *testbed.Testbed, b *uam.UAM) (done func()) {
	//unetlint:allow rawgo cross-shard completion flag; set once after measurement, ordered by the group's window barriers
	flag := new(atomic.Bool)
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !flag.Load() {
			b.PollWait(p, time.Millisecond)
		}
	})
	return func() { flag.Store(true) }
}

// Handler indices used by the drivers.
const (
	hEcho  = 1
	hEchoR = 2
)

// UAMPingPong measures the UAM request/reply round-trip time with
// size-byte payloads (Figure 3, "UAM" for ≤32 B and "UAM xfer" beyond).
func UAMPingPong(cfg uam.Config, size, rounds int) time.Duration {
	tb, a, b := uamPair(cfg, nil)
	defer tb.Close()
	rtt, err := uamEcho(tb, a, b, size, rounds)
	mustNoErr(err, "uam request on a perfect wire")
	return rtt
}

// uamEcho runs rounds+1 request/reply round trips of size-byte payloads
// from a to b and returns the mean of all but the first. Lost cells are the
// go-back-N timer's to recover and show as a tail on the mean. Only a peer
// declared dead ends the run early: the failed Request is returned with the
// mean so far, and the deadline bounds the wait for a reply that will never
// come.
func uamEcho(tb *testbed.Testbed, a, b *uam.UAM, size, rounds int) (time.Duration, error) {
	payload := make([]byte, size)
	gotReply := false
	b.RegisterHandler(hEcho, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		if err := u.Reply(p, hEchoR, arg, data); err != nil && !errors.Is(err, uam.ErrPeerDead) {
			panic(err)
		}
	})
	a.RegisterHandler(hEchoR, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		gotReply = true
	})
	var start, end time.Duration
	var failed error
	done := serveUntilDone(tb, b)
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		deadline := p.Now() + time.Duration(rounds+1)*100*time.Millisecond
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			gotReply = false
			if failed = a.Request(p, 1, hEcho, uint32(i), payload); failed != nil {
				break
			}
			for !gotReply && p.Now() < deadline {
				a.PollWait(p, time.Millisecond)
			}
		}
		end = p.Now()
		done()
	})
	tb.Eng.Run()
	return (end - start) / time.Duration(rounds), failed
}

// UAMStoreBandwidth measures GAM block-store streaming bandwidth
// (Figure 4, "UAM store"): blocks of the given size are stored to the
// remote node in a loop and the total time measured (§5.2).
func UAMStoreBandwidth(cfg uam.Config, size, count int) float64 {
	tb, a, b := uamPair(cfg, nil)
	defer tb.Close()
	block := make([]byte, size)
	var elapsed time.Duration
	done := serveUntilDone(tb, b)
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		// Warm the pipe with one block, then measure.
		if err := a.Store(p, 1, 0, block, 0, 0); err != nil {
			panic(err)
		}
		a.Flush(p, 1)
		t0 := p.Now()
		for i := 0; i < count; i++ {
			if err := a.Store(p, 1, 0, block, 0, 0); err != nil {
				panic(err)
			}
		}
		a.Flush(p, 1)
		elapsed = p.Now() - t0
		done()
	})
	tb.Eng.Run()
	return float64(size*count) / elapsed.Seconds() / 1e6
}

// UAMGetBandwidth measures GAM block-get streaming bandwidth (Figure 4,
// "UAM get"): a series of requests fetches blocks from the remote node
// and the caller waits until all arrive (§5.2).
func UAMGetBandwidth(cfg uam.Config, size, count int) float64 {
	tb, a, b := uamPair(cfg, nil)
	defer tb.Close()
	var elapsed time.Duration
	done := serveUntilDone(tb, b)
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		warm, err := a.Get(p, 1, 0, 0, size)
		if err != nil {
			panic(err)
		}
		mustNoErr(a.WaitGet(p, warm), "uam get")
		t0 := p.Now()
		tags := make([]uint32, 0, count)
		for i := 0; i < count; i++ {
			tag, err := a.Get(p, 1, 0, 0, size)
			if err != nil {
				panic(err)
			}
			tags = append(tags, tag)
		}
		for _, tag := range tags {
			mustNoErr(a.WaitGet(p, tag), "uam get")
		}
		elapsed = p.Now() - t0
		done()
	})
	tb.Eng.Run()
	return float64(size*count) / elapsed.Seconds() / 1e6
}

// AAL5Limit is the theoretical peak payload bandwidth of the fiber for
// size-byte messages, with the 48-byte cell quantization sawtooth
// (Figure 4, "AAL-5 limit").
func AAL5Limit(size int) float64 {
	cells := (size + 8 + 47) / 48
	wire := time.Duration(cells) * 3158 * time.Nanosecond
	return float64(size) / wire.Seconds() / 1e6
}

func mustNoErr(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", what, err))
	}
}
