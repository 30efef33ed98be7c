package tcp_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/faults"
	"unet/internal/ip/tcp"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/topo"
)

func pair(t *testing.T, params tcp.Params) (*testbed.Testbed, *tcp.Conn, *tcp.Conn) {
	t.Helper()
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	ca, cb, err := tb.NewIPConduitPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tb, tcp.New(ca, 5000, 80, params), tcp.New(cb, 80, 5000, params)
}

// TestAcceptResumesAfterTimeout: an Accept that times out leaves the
// passive open in place, and the next call completes it.
func TestAcceptResumesAfterTimeout(t *testing.T) {
	tb, a, b := pair(t, tcp.DefaultParams())
	var first, second error
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		first = b.Accept(p, time.Millisecond)
		second = b.Accept(p, time.Second)
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		if err := a.Dial(p, time.Second); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()
	if !errors.Is(first, tcp.ErrTimeout) || second != nil || !b.Established() {
		t.Fatalf("first Accept %v, second %v, established %v: want a timeout, then the connection", first, second, b.Established())
	}
}

// transfer runs a bulk transfer of total bytes in chunks of writeSize and
// returns (received data, elapsed from first write to last byte read).
func transfer(t *testing.T, tb *testbed.Testbed, a, b *tcp.Conn, total, writeSize int) ([]byte, time.Duration) {
	t.Helper()
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i*13 + i>>8)
	}
	var got []byte
	var start, end time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64<<10)
		deadline := p.Now() + 30*time.Second
		for len(got) < total && p.Now() < deadline {
			n, err := b.Read(p, buf, 200*time.Millisecond)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n > 0 {
				got = append(got, buf[:n]...)
				end = p.Now()
			}
		}
		// Service the tail: a user-level TCP only acts when the application
		// drives it, so keep polling briefly to ack the final segments and
		// absorb any retransmissions.
		for k := 0; k < 300; k++ {
			b.Poll(p)
			p.Sleep(time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		start = p.Now()
		for off := 0; off < total; off += writeSize {
			hi := off + writeSize
			if hi > total {
				hi = total
			}
			if err := a.Write(p, src[off:hi]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := a.Flush(p, 20*time.Second); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()
	if !bytes.Equal(got, src) {
		t.Fatalf("data corrupted: got %d bytes, want %d", len(got), total)
	}
	return got, end - start
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	tb, a, b := pair(t, tcp.DefaultParams())
	transfer(t, tb, a, b, 1000, 1000)
	if !a.Established() || !b.Established() {
		t.Fatal("connection not established")
	}
}

func TestBulkTransfer1M(t *testing.T) {
	tb, a, b := pair(t, tcp.DefaultParams())
	_, elapsed := transfer(t, tb, a, b, 1<<20, 8192)
	bw := float64(1<<20) / elapsed.Seconds() / 1e6
	// Figure 8: U-Net TCP reaches 14-15 MB/s with an 8 KB window.
	if bw < 13.5 || bw > 15.5 {
		t.Fatalf("U-Net TCP bandwidth = %.2f MB/s, want 14-15", bw)
	}
}

func TestLossRecovery(t *testing.T) {
	tb, a, b := pair(t, tcp.DefaultParams())
	// Drop a handful of cells mid-stream on B's downlink: whole segments
	// vanish (AAL5) and TCP must recover.
	i := 0
	tb.Net.Downlink(1).SetInjector(faults.DropIf(func(atm.Cell) bool {
		i++
		return i >= 100 && i < 103
	}))
	transfer(t, tb, a, b, 128<<10, 8192)
	st := a.Stats()
	if st.Retransmits == 0 {
		t.Fatal("no retransmissions despite injected loss")
	}
}

func TestFastRetransmitBeatsTimer(t *testing.T) {
	params := tcp.DefaultParams()
	params.WindowBytes = 16 << 10 // keep ≥ 4 segments in flight behind a loss
	tb, a, b := pair(t, params)
	// One lost cell mid-stream → one lost segment, window open.
	tb.Net.Downlink(1).SetInjector(faults.NewNthCell(1500))
	_, elapsed := transfer(t, tb, a, b, 128<<10, 8192)
	st := a.Stats()
	if st.FastRetransmits == 0 {
		t.Fatalf("expected a fast retransmit, stats %+v", st)
	}
	// Recovery must not have cost a full coarse timeout.
	if elapsed > 50*time.Millisecond {
		t.Fatalf("transfer took %v — recovered by timeout, not fast retransmit", elapsed)
	}
}

func TestCoarseTimerHurtsRecovery(t *testing.T) {
	// §7.8: with BSD's 500 ms pr_slow_timeout, a loss the fast-retransmit
	// logic cannot repair (a lost retransmission) stalls the connection
	// for ~a second. Compare 1 ms vs 500 ms granularity under identical
	// double loss.
	run := func(gran time.Duration) time.Duration {
		params := tcp.DefaultParams()
		params.TimerGranularity = gran
		tb, a, b := pair(t, params)
		i := 0
		tb.Net.Downlink(1).SetInjector(faults.DropIf(func(atm.Cell) bool {
			i++
			// Lose a segment and its fast retransmission.
			return i >= 100 && i < 200
		}))
		_, elapsed := transfer(t, tb, a, b, 64<<10, 8192)
		return elapsed
	}
	fine := run(time.Millisecond)
	coarse := run(500 * time.Millisecond)
	if coarse < 10*fine {
		t.Fatalf("coarse timer recovery %v not ≫ fine %v", coarse, fine)
	}
	if coarse < 400*time.Millisecond {
		t.Fatalf("coarse-timer recovery %v should include a ~500ms+ stall", coarse)
	}
}

func TestWindowLimitsThroughput(t *testing.T) {
	// Shrinking the window below the bandwidth-delay product must cut
	// bandwidth (the premise of Figure 8's window sweep).
	small := tcp.DefaultParams()
	small.WindowBytes = 2048
	tb1, a1, b1 := pair(t, small)
	_, e1 := transfer(t, tb1, a1, b1, 128<<10, 8192)

	big := tcp.DefaultParams()
	tb2, a2, b2 := pair(t, big)
	_, e2 := transfer(t, tb2, a2, b2, 128<<10, 8192)
	if e1 <= e2 {
		t.Fatalf("2K window (%v) not slower than 8K window (%v)", e1, e2)
	}
	bwSmall := float64(128<<10) / e1.Seconds() / 1e6
	if bwSmall > 8 {
		t.Fatalf("2K-window bandwidth %.2f MB/s suspiciously high", bwSmall)
	}
}

func TestZeroWindowAndProbe(t *testing.T) {
	// A slow reader closes the window; the sender must survive via window
	// updates (and probes) without data loss.
	params := tcp.DefaultParams()
	params.WindowBytes = 4096
	tb, a, b := pair(t, params)
	total := 64 << 10
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i)
	}
	var got []byte
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 1024)
		for len(got) < total {
			p.Sleep(300 * time.Microsecond) // slow consumer
			n, err := b.Read(p, buf, 100*time.Millisecond)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, buf[:n]...)
		}
		for k := 0; k < 300; k++ {
			b.Poll(p)
			p.Sleep(time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		if err := a.Write(p, src); err != nil {
			t.Error(err)
		}
		if err := a.Flush(p, time.Second); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()
	if !bytes.Equal(got, src) {
		t.Fatalf("slow-reader transfer corrupted (%d bytes)", len(got))
	}
}

func TestZeroWindowSilentPeerIsDeclaredDead(t *testing.T) {
	// The reader fills its 4 KB window and then stops polling for good, so
	// the writer's probes go unanswered: Write must give up with
	// ErrPeerDead in bounded virtual time (2 ms doubling over MaxTimeouts
	// probes is about 16 s) instead of persisting for ever.
	params := tcp.DefaultParams()
	params.WindowBytes = 4096
	tb, a, b := pair(t, params)
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		for k := 0; k < 20; k++ { // long enough to advertise window 0
			b.Poll(p)
			p.Sleep(time.Millisecond)
		}
	})
	var writeErr error
	var returned time.Duration
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		writeErr = a.Write(p, make([]byte, 256<<10))
		returned = p.Now()
	})
	const deadline = 20 * time.Second
	tb.Eng.RunUntil(deadline)
	if returned == 0 {
		t.Fatalf("Write still blocked behind the closed window after %v (%d probes sent)", deadline, a.Stats().WindowProbes)
	}
	if !errors.Is(writeErr, tcp.ErrPeerDead) || !a.Dead() {
		t.Fatalf("Write returned %v at %v (Dead=%v), want ErrPeerDead", writeErr, returned, a.Dead())
	}
	// The probes the reader answered while it still polled are free.
	if got := a.Stats().WindowProbes; got < uint64(params.MaxTimeouts) {
		t.Fatalf("gave up after %d window probes, want at least MaxTimeouts=%d", got, params.MaxTimeouts)
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	tb, a, b := pair(t, tcp.DefaultParams())
	var readErr error
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 100)
		n, _ := b.Read(p, buf, 50*time.Millisecond)
		if n != 5 {
			t.Errorf("read %d bytes, want 5", n)
		}
		_, readErr = b.Read(p, buf, 50*time.Millisecond)
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		a.Write(p, []byte("hello"))
		if err := a.Close(p, 100*time.Millisecond); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()
	if !errors.Is(readErr, tcp.ErrClosed) {
		t.Fatalf("read after FIN: %v, want ErrClosed", readErr)
	}
}

func TestDelayedAckReducesAckTraffic(t *testing.T) {
	run := func(delayed bool) uint64 {
		params := tcp.DefaultParams()
		params.DelayedAck = delayed
		tb, a, b := pair(t, params)
		transfer(t, tb, a, b, 64<<10, 8192)
		return b.Stats().AcksOut
	}
	eager := run(false)
	lazy := run(true)
	if lazy >= eager {
		t.Fatalf("delayed acks (%d) not fewer than eager acks (%d)", lazy, eager)
	}
}

func TestSlowStartRampsCwnd(t *testing.T) {
	tb, a, b := pair(t, tcp.DefaultParams())
	transfer(t, tb, a, b, 64<<10, 8192)
	st := a.Stats()
	if st.Timeouts != 0 {
		t.Fatalf("clean transfer suffered %d timeouts", st.Timeouts)
	}
	if st.SegsOut < 32 {
		t.Fatalf("SegsOut = %d, want ≥ 32 for 64 KB at 2 KB MSS", st.SegsOut)
	}
}

func TestUNetTCPSmallMessageRTT(t *testing.T) {
	// Table 3: TCP round-trip latency 157 µs for small messages.
	tb, a, b := pair(t, tcp.DefaultParams())
	const rounds = 40
	var rtt time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		for i := 0; i < rounds+1; i++ {
			n := 0
			for n < 4 {
				m, err := b.Read(p, buf[n:4], 100*time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				n += m
			}
			b.Write(p, buf[:4])
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		var start time.Duration
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			a.Write(p, []byte{1, 2, 3, 4})
			n := 0
			for n < 4 {
				m, err := a.Read(p, buf[n:4], 100*time.Millisecond)
				if err != nil {
					t.Error(err)
					return
				}
				n += m
			}
		}
		rtt = (p.Now() - start) / rounds
	})
	tb.Eng.Run()
	us := float64(rtt) / float64(time.Microsecond)
	if us < 157*0.95 || us > 157*1.05 {
		t.Fatalf("TCP small-message RTT = %.1f µs, want 157 ± 5%%", us)
	}
}

// wanPair builds a TCP pair over a long-latency path (a metropolitan /
// wide-area fiber), where the bandwidth-delay product exceeds the 16-bit
// window field — the §7.8 scenario for window scaling.
func wanPair(t *testing.T, params tcp.Params, propagation time.Duration) (*testbed.Testbed, *tcp.Conn, *tcp.Conn) {
	t.Helper()
	spec := topo.Star("atm", 2)
	spec.HostLink.Propagation = propagation
	tb := testbed.New(testbed.Config{Topology: spec})
	t.Cleanup(tb.Close)
	ca, cb, err := tb.NewIPConduitPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tb, tcp.New(ca, 5000, 80, params), tcp.New(cb, 80, 5000, params)
}

func TestWindowScaleSustainsWANBandwidth(t *testing.T) {
	// 4 ms propagation per hop (host-switch-host) → ~16 ms RTT → BDP ≈
	// 15 MB/s × 16 ms = 240 KB, far beyond the 64 KB unscaled maximum.
	const prop = 4 * time.Millisecond
	run := func(window int, scale uint) float64 {
		params := tcp.DefaultParams()
		params.WindowBytes = window
		params.WindowScale = scale
		params.SendBufBytes = 768 << 10
		tb, a, b := wanPair(t, params, prop)
		const total = 8 << 20
		_, elapsed := transfer(t, tb, a, b, total, 16384)
		return float64(total) / elapsed.Seconds() / 1e6
	}
	unscaled := run(60<<10, 0)
	scaled := run(384<<10, 3)
	// Unscaled: capped near window/RTT = 60 KB / 16 ms ≈ 3.7 MB/s.
	if unscaled > 5 {
		t.Errorf("unscaled WAN bandwidth %.2f MB/s too high — window cap missing", unscaled)
	}
	// Scaled: the 384 KB window covers the BDP and the fiber limits again.
	if scaled < 11 {
		t.Errorf("scaled WAN bandwidth %.2f MB/s — window scaling ineffective", scaled)
	}
	if scaled < 2*unscaled {
		t.Errorf("window scaling gained too little: %.2f vs %.2f MB/s", scaled, unscaled)
	}
}

func TestWindowScaleLANUnchanged(t *testing.T) {
	// On the LAN the scaled configuration must not disturb the calibrated
	// behaviour.
	params := tcp.DefaultParams()
	params.WindowScale = 2
	params.WindowBytes = 8 << 10
	tb, a, b := pair(t, params)
	_, elapsed := transfer(t, tb, a, b, 256<<10, 8192)
	bw := float64(256<<10) / elapsed.Seconds() / 1e6
	if bw < 13.5 || bw > 15.5 {
		t.Fatalf("LAN bandwidth with scaling = %.2f MB/s, want 14-15", bw)
	}
}
