package tcp_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"unet/internal/faults"
	"unet/internal/ip/tcp"
	"unet/internal/sim"
	"unet/internal/testbed"
)

// tcpLossResult is everything the seeded-loss golden compares across
// shard counts.
type tcpLossResult struct {
	ok    bool
	data  []byte
	stats tcp.Stats
}

// runTCPNthCellLoss transfers 32 KB with exactly one downlink cell
// dropped mid-PDU: the AAL5 CRC-32 then discards the whole segment at
// the NIC and TCP must recover by retransmission.
func runTCPNthCellLoss(t *testing.T, shards int) tcpLossResult {
	t.Helper()
	tb := testbed.New(testbed.Config{Hosts: 2, Shards: shards})
	t.Cleanup(tb.Close)
	ca, cb, err := tb.NewIPConduitPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tcp.New(ca, 5000, 80, tcp.DefaultParams()), tcp.New(cb, 80, 5000, tcp.DefaultParams())
	tb.Topo.Downlink(1).SetInjector(faults.NewNthCell(50))

	const total = 32 << 10
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i*13 + i>>8)
	}
	var res tcpLossResult
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64<<10)
		deadline := p.Now() + 10*time.Second
		for len(res.data) < total && p.Now() < deadline {
			n, err := b.Read(p, buf, 100*time.Millisecond)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			res.data = append(res.data, buf[:n]...)
		}
		for k := 0; k < 50; k++ { // ack the tail
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
			return
		}
		if err := a.Flush(p, 10*time.Second); err != nil {
			t.Error(err)
			return
		}
		res.ok = true
	})
	tb.Eng.Run()
	res.stats = a.Stats()

	if !res.ok || !bytes.Equal(res.data, src) {
		t.Fatalf("shards=%d: transfer incomplete (ok=%v, %d/%d bytes intact)",
			shards, res.ok, len(res.data), total)
	}
	return res
}

// TestSeededLossNthCellGolden is the TCP seeded-loss golden: one dropped
// cell kills one segment, TCP recovers it, the full byte stream arrives
// intact, and the recovery (retransmit counts included) is identical at
// every shard count.
func TestSeededLossNthCellGolden(t *testing.T) {
	base := runTCPNthCellLoss(t, 0)
	if base.stats.Retransmits+base.stats.FastRetransmits == 0 {
		t.Fatal("no retransmissions despite a dropped data segment")
	}
	if base.stats.Retransmits > 8 {
		t.Fatalf("Retransmits = %d for a single lost segment, want a bounded recovery", base.stats.Retransmits)
	}
	for _, shards := range []int{1, 2, 4} {
		got := runTCPNthCellLoss(t, shards)
		if got.stats != base.stats {
			t.Fatalf("shards=%d stats %+v differ from serial %+v", shards, got.stats, base.stats)
		}
	}
}

// TestDeadPeerFailsInBoundedTime pins the TCP retry cap: a peer that
// stops servicing its connection after the handshake must surface
// ErrPeerDead after MaxTimeouts backed-off retransmission timeouts, in
// bounded virtual time, instead of retransmitting forever.
func TestDeadPeerFailsInBoundedTime(t *testing.T) {
	params := tcp.DefaultParams()
	params.MaxTimeouts = 5
	tb, a, b := pair(t, params)

	var flushErr, againErr error
	var deadAfter time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		// Service one small exchange (this also gives the client's RTT
		// estimator a sample, pulling its RTO down from the conservative
		// pre-handshake second), then stop: the peer never services the
		// connection again.
		buf := make([]byte, 4<<10)
		got := 0
		for got < 2048 {
			n, err := b.Read(p, buf, 100*time.Millisecond)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got += n
		}
		for k := 0; k < 10; k++ {
			b.Poll(p)
			p.Sleep(time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		if err := a.Write(p, make([]byte, 2048)); err != nil {
			t.Error(err)
			return
		}
		if err := a.Flush(p, time.Second); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(20 * time.Millisecond) // let the server's poll tail finish
		start := p.Now()
		if err := a.Write(p, make([]byte, 4<<10)); err != nil && !errors.Is(err, tcp.ErrPeerDead) {
			t.Error(err)
			return
		}
		flushErr = a.Flush(p, time.Hour)
		deadAfter = p.Now() - start
		againErr = a.Write(p, []byte{1})
	})
	tb.Eng.Run()

	if !errors.Is(flushErr, tcp.ErrPeerDead) {
		t.Fatalf("Flush to a dead peer returned %v, want ErrPeerDead", flushErr)
	}
	if !errors.Is(againErr, tcp.ErrPeerDead) {
		t.Fatalf("Write after the retry budget was spent returned %v, want ErrPeerDead", againErr)
	}
	// 5 timeouts with doubling RTO starting from ~2 ticks of 1 ms each:
	// well under a second of virtual time, nowhere near the 1 h budget.
	if deadAfter > time.Second {
		t.Fatalf("peer declared dead after %v, want bounded well under 1s", deadAfter)
	}
	if got := a.Stats().Timeouts; got < 5 {
		t.Fatalf("Timeouts = %d, want at least MaxTimeouts = 5", got)
	}

	// Later blocking calls fail immediately rather than stalling again.
	var again error
	tb.Hosts[0].Spawn("cli2", func(p *sim.Proc) {
		again = a.Write(p, []byte("more"))
	})
	tb.Eng.Run()
	if !errors.Is(again, tcp.ErrPeerDead) {
		t.Fatalf("Write after death returned %v, want ErrPeerDead", again)
	}
}

// TestTimeoutClearsStaleDupAcks pins the recovery-path fix: duplicate
// acks counted before a retransmission timeout belong to the old flight
// and must not accumulate toward a bogus fast retransmit afterwards.
func TestTimeoutClearsStaleDupAcks(t *testing.T) {
	// Two separated losses in the same transfer: the first is recovered
	// (building up duplicate-ack state), the second forces a timeout. If
	// the dup-ack counter survived the timeout, the post-recovery
	// duplicates would fire a spurious fast retransmit of already-acked
	// data. The assertion is indirect but tight: the transfer completes
	// byte-identically with a bounded retransmission count.
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	ca, cb, err := tb.NewIPConduitPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := tcp.DefaultParams()
	a, b := tcp.New(ca, 5000, 80, params), tcp.New(cb, 80, 5000, params)
	ch := faults.NewChain(faults.NewNthCell(50), faults.NewNthCell(200))
	tb.Topo.Downlink(1).SetInjector(ch)

	const total = 48 << 10
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var got []byte
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, 100*time.Millisecond); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64<<10)
		deadline := p.Now() + 10*time.Second
		for len(got) < total && p.Now() < deadline {
			n, err := b.Read(p, buf, 100*time.Millisecond)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = append(got, buf[:n]...)
		}
		for k := 0; k < 50; k++ {
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
			return
		}
		if err := a.Flush(p, 10*time.Second); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()

	if !bytes.Equal(got, src) {
		t.Fatalf("transfer corrupted: %d/%d bytes intact", len(got), total)
	}
	st := a.Stats()
	if ch.Stats().Dropped != 2 {
		t.Fatalf("injector dropped %d cells, want 2", ch.Stats().Dropped)
	}
	if st.Retransmits+st.FastRetransmits == 0 {
		t.Fatal("no retransmissions despite two dropped segments")
	}
	if st.Retransmits+st.FastRetransmits > 12 {
		t.Fatalf("%d retransmits for two lost segments: recovery is not bounded",
			st.Retransmits+st.FastRetransmits)
	}
}
