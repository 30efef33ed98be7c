package testbed

import (
	"time"

	"unet/internal/sim"
)

// PingPong measures the mean round-trip time of size-byte messages echoed
// between the pair's endpoints, the experiment behind Figure 3's Raw U-Net
// curve. One warm-up round precedes measurement.
func (pr *Pair) PingPong(rounds, size int) time.Duration {
	tb := pr.TB
	stageA, stageB := pr.StageA, pr.StageB
	var start, end time.Duration

	pr.EpB.Host().Spawn("echo", func(p *sim.Proc) {
		for i := 0; i < rounds+1; i++ {
			rd := pr.EpB.Recv(p)
			pr.EpB.Release(p, rd)
			if err := pr.EpB.SendBlock(p, pr.EpB.DescAt(pr.ChB, stageB, size)); err != nil {
				panic(err)
			}
		}
	})
	pr.EpA.Host().Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			if err := pr.EpA.SendBlock(p, pr.EpA.DescAt(pr.ChA, stageA, size)); err != nil {
				panic(err)
			}
			rd := pr.EpA.Recv(p)
			pr.EpA.Release(p, rd)
		}
		end = p.Now()
	})
	tb.Eng.Run()
	return (end - start) / time.Duration(rounds)
}

// StreamResult reports a one-way streaming experiment.
type StreamResult struct {
	Messages  int
	Bytes     int
	Elapsed   time.Duration
	Delivered int
	Dropped   uint64
}

// MBps is the receiver-observed payload bandwidth in megabytes per second.
func (r StreamResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// Stream blasts count size-byte messages from endpoint A to endpoint B as
// fast as the send queue accepts them and reports the receiver-observed
// bandwidth — the experiment behind Figure 4's Raw U-Net curve.
func (pr *Pair) Stream(count, size int) StreamResult {
	tb := pr.TB
	stageA := pr.StageA
	res := StreamResult{Messages: count}
	var start, end time.Duration

	pr.EpB.Host().Spawn("sink", func(p *sim.Proc) {
		for got := 0; got < count; got++ {
			rd := pr.EpB.Recv(p)
			pr.EpB.Release(p, rd)
			res.Delivered++
			if got == 0 {
				// The first delivery opens the measurement window; its own
				// bytes are excluded so that Bytes/Elapsed is unbiased.
				start = p.Now()
			} else {
				res.Bytes += rd.Length
			}
			end = p.Now()
		}
	})
	pr.EpA.Host().Spawn("blast", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if err := pr.EpA.SendBlock(p, pr.EpA.DescAt(pr.ChA, stageA, size)); err != nil {
				panic(err)
			}
		}
	})
	// A lossy stream never delivers count messages; bound the run.
	tb.Eng.RunUntil(time.Duration(count)*time.Millisecond + time.Second)
	st := pr.EpB.Stats()
	res.Dropped = st.DroppedNoBuffer + st.DroppedQueueFull + st.DroppedReassembly
	res.Elapsed = end - start
	return res
}
