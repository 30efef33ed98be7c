package uam_test

import (
	"errors"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
)

// TestDeadPeerFailsInBoundedTime pins the retry cap: a peer that never
// services the network must surface ErrPeerDead after MaxRetries
// backed-off retransmissions, in bounded virtual time, instead of
// retransmitting forever.
func TestDeadPeerFailsInBoundedTime(t *testing.T) {
	cfg := uam.Config{
		RetransmitTimeout: 500 * time.Microsecond,
		RetransmitMax:     4 * time.Millisecond,
		MaxRetries:        5,
	}
	tb, us := fixture(t, 2, cfg)
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})
	// Host 1 deliberately never polls.

	var flushErr error
	var failedAt time.Duration
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := us[0].Request(p, 1, 1, 7, []byte("hello?")); err != nil {
			t.Error(err)
			return
		}
		flushErr = us[0].Flush(p, 1)
		failedAt = p.Now()
	})
	tb.Eng.Run()

	if !errors.Is(flushErr, uam.ErrPeerDead) {
		t.Fatalf("Flush to a dead peer returned %v, want ErrPeerDead", flushErr)
	}
	// 5 retries of one message: intervals 0.5, 0.5, 1, 2, 4 ms ≈ 8 ms.
	if failedAt > 20*time.Millisecond {
		t.Fatalf("peer declared dead at %v, want bounded well under 20ms", failedAt)
	}
	if got := us[0].Stats().Retransmits; got != 5 {
		t.Fatalf("Retransmits = %d, want exactly MaxRetries = 5", got)
	}
	if got := us[0].Outstanding(1); got != 1 {
		t.Fatalf("Outstanding = %d after dead peer, want the staged message still counted", got)
	}

	// Later blocking calls fail immediately rather than stalling again.
	var again error
	var at0, at1 time.Duration
	tb.Hosts[0].Spawn("cli2", func(p *sim.Proc) {
		at0 = p.Now()
		again = us[0].Request(p, 1, 1, 8, nil)
		at1 = p.Now()
	})
	tb.Eng.Run()
	if !errors.Is(again, uam.ErrPeerDead) {
		t.Fatalf("Request after death returned %v, want ErrPeerDead", again)
	}
	if at1-at0 > time.Millisecond {
		t.Fatalf("post-death Request blocked %v, want an immediate failure", at1-at0)
	}
}

// TestRetransmitBackoffGrows watches the sender's wire directly: with a
// silent peer, the gaps between successive go-back-N retransmissions
// must grow exponentially up to the cap.
func TestRetransmitBackoffGrows(t *testing.T) {
	cfg := uam.Config{
		RetransmitTimeout: 500 * time.Microsecond,
		RetransmitMax:     2 * time.Millisecond,
		MaxRetries:        4,
	}
	tb, us := fixture(t, 2, cfg)
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {})

	var sends []time.Duration
	tb.Topo.Uplink(0).SetInjector(faults.DropIf(func(atm.Cell) bool {
		sends = append(sends, tb.Eng.Now())
		return false
	}))
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		us[0].Request(p, 1, 1, 0, nil)
		us[0].Flush(p, 1) // returns ErrPeerDead; checked by the test above
	})
	tb.Eng.Run()

	// Initial send + ack ping + 4 retransmissions of the data cell.
	if len(sends) != 6 {
		t.Fatalf("saw %d transmissions, want 6 (send, ping, 4 retries)", len(sends))
	}
	retries := sends[2:]
	var gaps []time.Duration
	prev := sends[0]
	for _, s := range retries {
		gaps = append(gaps, s-prev)
		prev = s
	}
	// Deadlines: base, base, 2·base, 4·base (capped at RetransmitMax).
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1] {
			t.Fatalf("retransmit gap shrank: %v after %v (gaps %v)", gaps[i], gaps[i-1], gaps)
		}
	}
	if gaps[len(gaps)-1] < 3*gaps[0] {
		t.Fatalf("backoff did not grow: gaps %v", gaps)
	}
	if gaps[len(gaps)-1] > cfg.RetransmitMax+time.Millisecond {
		t.Fatalf("backoff exceeded the cap: gaps %v", gaps)
	}
}

// uamLossResult is everything the seeded-loss golden compares across
// shard counts.
type uamLossResult struct {
	args                   []uint32
	retx, dups, suppressed uint64
	acksSent               uint64
}

// runNthCellLoss drives 10 requests from node 0 to node 1 with exactly
// the 3rd downlink cell dropped by the deterministic NthCell injector.
func runNthCellLoss(t *testing.T, shards int) uamLossResult {
	t.Helper()
	cfg := uam.Config{RetransmitTimeout: 500 * time.Microsecond}
	tb := testbed.New(testbed.Config{Hosts: 2, Shards: shards})
	t.Cleanup(tb.Close)
	us := make([]*uam.UAM, 2)
	for i := range us {
		var err error
		us[i], err = uam.New(tb.Hosts[i].NewProcess("am"), i, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := uam.Connect(tb.Manager, us[0], us[1]); err != nil {
		t.Fatal(err)
	}
	tb.Topo.Downlink(1).SetInjector(faults.NewNthCell(3))

	var res uamLossResult
	done := false
	us[1].RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		res.args = append(res.args, arg)
	})
	const n = 10
	// Coarse polling: bursts of arrivals (e.g. the go-back-N replay after
	// the drop) queue up and drain in a single Poll batch, which is the
	// case duplicate-ack suppression exists for.
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for !done {
			us[1].Poll(p)
			p.Sleep(50 * time.Microsecond)
		}
		for i := 0; i < 30; i++ { // keep servicing the tail
			us[1].Poll(p)
			p.Sleep(200 * time.Microsecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := us[0].Request(p, 1, 1, uint32(100+i), nil); err != nil {
				t.Error(err)
			}
		}
		if err := us[0].Flush(p, 1); err != nil {
			t.Error(err)
		}
		done = true
	})
	tb.Eng.Run()

	st0, st1 := us[0].Stats(), us[1].Stats()
	res.retx = st0.Retransmits
	res.dups = st1.Duplicates
	res.suppressed = st1.AcksSuppressed
	res.acksSent = st1.AcksSent
	return res
}

// TestSeededLossNthCellGolden is the UAM seeded-loss golden: dropping
// exactly the 3rd cell must yield in-order exactly-once delivery, a
// reproducible retransmit count, duplicate-ack suppression, and an
// identical outcome at every shard count.
func TestSeededLossNthCellGolden(t *testing.T) {
	base := runNthCellLoss(t, 0)
	if len(base.args) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(base.args))
	}
	for i, a := range base.args {
		if a != uint32(100+i) {
			t.Fatalf("args[%d] = %d: delivery not in-order exactly-once (%v)", i, a, base.args)
		}
	}
	if base.retx == 0 || base.retx > 8 {
		t.Fatalf("Retransmits = %d, want one bounded go-back-N replay (1..8)", base.retx)
	}
	if base.dups == 0 {
		t.Fatal("no duplicates observed despite a window replay")
	}
	if base.dups > 1 && base.suppressed == 0 {
		t.Fatalf("duplicate burst of %d forced an ack per duplicate (0 suppressed)", base.dups)
	}
	for _, shards := range []int{1, 2, 4} {
		got := runNthCellLoss(t, shards)
		if len(got.args) != len(base.args) {
			t.Fatalf("shards=%d delivered %d messages, serial delivered %d", shards, len(got.args), len(base.args))
		}
		for i := range got.args {
			if got.args[i] != base.args[i] {
				t.Fatalf("shards=%d args[%d] = %d, serial %d", shards, i, got.args[i], base.args[i])
			}
		}
		if got.retx != base.retx || got.dups != base.dups || got.suppressed != base.suppressed || got.acksSent != base.acksSent {
			t.Fatalf("shards=%d stats (retx %d dups %d sup %d acks %d) differ from serial (retx %d dups %d sup %d acks %d)",
				shards, got.retx, got.dups, got.suppressed, got.acksSent,
				base.retx, base.dups, base.suppressed, base.acksSent)
		}
	}
}
