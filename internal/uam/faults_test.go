package uam_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
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
	if st := us[0].Stats(); st.Retransmits != 5 || st.ReqSent != 1 || st.AcksRecv != 0 {
		t.Fatalf("stats = %+v, want exactly MaxRetries = 5 retransmissions of the one unacknowledged request", st)
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

// delayAll holds every cell it judges back by the same time, so the link
// keeps its order and loses nothing.
type delayAll time.Duration

func (d delayAll) Judge(*atm.Cell, time.Duration) fabric.Verdict {
	return fabric.Verdict{Delay: time.Duration(d)}
}

// TestBusyPeerIsNotDeclaredDead: node 0's request reaches node 1 only
// after ten retry budgets in its uplink (a hot spot's queue, in effect),
// while node 1 keeps sending to node 0. Node 0 spends its retries long
// before the ack can come, but a peer still heard from is alive: the flush
// waits for the ack instead of failing with ErrPeerDead on a wire that
// loses nothing. Node 1 hears nothing from node 0 meanwhile, so its own
// budget is one that outlasts the hold.
func TestBusyPeerIsNotDeclaredDead(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	defer tb.Close()
	cfg := uam.Config{RetransmitTimeout: 200 * time.Microsecond, RetransmitMax: 400 * time.Microsecond, MaxRetries: 3}
	const held = 12 * time.Millisecond // node 0's budget is 0.2+0.2+0.4+0.4 = 1.2 ms
	var us [2]*uam.UAM
	for i, retries := range []int{cfg.MaxRetries, 100} {
		c := cfg
		c.MaxRetries = retries
		var err error
		if us[i], err = uam.New(tb.Hosts[i].NewProcess("am"), i, c); err != nil {
			t.Fatal(err)
		}
		us[i].RegisterHandler(1, func(*uam.UAM, *sim.Proc, int, uint32, []byte) {})
	}
	if err := uam.Connect(tb.Manager, us[0], us[1]); err != nil {
		t.Fatal(err)
	}
	tb.Topo.Uplink(0).SetInjector(delayAll(held))
	var flushErr error
	var flushed time.Duration
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := us[0].Request(p, 1, 1, 0, []byte("held")); err != nil {
			t.Error(err)
			return
		}
		flushErr = us[0].Flush(p, 1)
		flushed = p.Now()
	})
	tb.Hosts[1].Spawn("chatty", func(p *sim.Proc) {
		for k := 0; k < 4; k++ {
			if err := us[1].Request(p, 0, 1, 0, nil); err != nil {
				t.Error(err)
				return
			}
		}
		for p.Now() < 2*held {
			us[1].PollWait(p, 500*time.Microsecond)
		}
	})
	tb.Eng.Run()
	if flushErr != nil || flushed < held {
		t.Fatalf("Flush returned %v at %v, want nil once the held request lands after %v", flushErr, flushed, held)
	}
	if got := us[0].Stats().Retransmits; got <= uint64(cfg.MaxRetries) {
		t.Fatalf("%d retransmissions, want more than MaxRetries = %d before the ack", got, cfg.MaxRetries)
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

	t.Run("DueTogether", func(t *testing.T) { retransmitsDueTogether(t, cfg) })
}

// retransmitsDueTogether lets the first timers of three silent peers fall
// due before one Poll while a fourth peer owes an explicit ack. Node 0
// sends to nodes 3, 1 and 2 in that order, so its deadlines fall due in
// that order too; the Poll must send the ack and retransmit in node-id
// order, 1, 2, 3, as checkTimers walks the peers, whatever the order of
// the deadlines.
func retransmitsDueTogether(t *testing.T, cfg uam.Config) {
	tb, us := fixture(t, 5, cfg)
	for _, u := range us {
		u.RegisterHandler(1, func(*uam.UAM, *sim.Proc, int, uint32, []byte) {})
	}
	var order []int // the silent peers' downlink cells, as they leave the switch
	for i := 1; i <= 3; i++ {
		tb.Topo.Downlink(i).SetInjector(faults.DropIf(func(atm.Cell) bool {
			order = append(order, i)
			return false
		}))
	}
	var polled uam.Stats
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		for _, dst := range []int{3, 1, 2} {
			if err := us[0].Request(p, dst, 1, 0, nil); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(cfg.RetransmitTimeout + 100*time.Microsecond)
		us[0].Poll(p)
		polled = us[0].Stats()
	})
	var flushErr error
	tb.Hosts[4].Spawn("owed", func(p *sim.Proc) {
		p.Sleep(cfg.RetransmitTimeout / 2)
		if err := us[4].Request(p, 0, 1, 0, nil); err != nil {
			t.Error(err)
			return
		}
		flushErr = us[4].Flush(p, 0) // pings node 0 for an explicit ack
	})
	tb.Eng.Run()

	if want := []int{3, 1, 2, 1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("silent peers saw cells in order %v, want %v: sends 3, 1, 2, then one poll's retransmissions by node id", order, want)
	}
	if polled.Retransmits != 3 || polled.AcksSent != 1 {
		t.Fatalf("one poll sent %d retransmissions and %d acks, want 3 and the 1 node 4 is owed", polled.Retransmits, polled.AcksSent)
	}
	if st := us[4].Stats(); flushErr != nil || st.AcksRecv != 1 || st.Retransmits != 0 {
		t.Fatalf("node 4: Flush %v, %d acks received, %d retransmissions; want its ack from the poll before its own timer", flushErr, st.AcksRecv, st.Retransmits)
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
