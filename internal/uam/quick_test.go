package uam_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"unet/internal/atm"
	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
)

// Property: under any pattern of cell loss (within a recoverable rate) the
// reliable stream delivers every message exactly once, in order and at the
// length it was sent with. Lengths vary message by message, so a window slot
// sent with a stale length — staged again while a queued retransmission
// still pointed at it — fails here.
func TestReliableStreamPropertyUnderLoss(t *testing.T) {
	prop := func(seed int64, lossPct uint8, nMsgs uint8, sizeSel uint8) bool {
		// Multi-cell messages amplify cell loss through AAL5 (a 1500-byte
		// message spans 32 cells), so keep the per-cell rate low enough
		// that the go-back-N recovery converges within the test budget.
		// At 3.9% such a message and its ack get through one try in four,
		// and the default 10 tries give up on it 4% of the time: the
		// property is delivery, so the budget is 40 tries, not the dead-peer
		// detector (TestDeadPeerFailsInBoundedTime).
		rate := float64(lossPct%40) / 1000 // 0-3.9% cell loss
		n := 5 + int(nMsgs%40)
		sizes := []int{0, 4, 16, 32, 64, 300, 1500}
		size := func(k int) int { return sizes[(int(sizeSel)+k)%len(sizes)] }

		tb := testbed.New(testbed.Config{Hosts: 2})
		defer tb.Close()
		cfg := uam.Config{RetransmitTimeout: 300 * time.Microsecond, MaxRetries: 40}
		a, err := uam.New(tb.Hosts[0].NewProcess("a"), 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uam.New(tb.Hosts[1].NewProcess("b"), 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := uam.Connect(tb.Manager, a, b); err != nil {
			t.Fatal(err)
		}
		// Independent per-cell loss in both directions (acks can be lost
		// too).
		rng := rand.New(rand.NewSource(seed))
		loss := func(atm.Cell) bool { return rng.Float64() < rate }
		tb.Topo.Downlink(0).SetInjector(faults.DropIf(loss))
		tb.Topo.Downlink(1).SetInjector(faults.DropIf(loss))

		var got []uint32
		b.RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
			if len(data) != size(int(arg)) {
				t.Errorf("message %d: payload length %d, want %d", arg, len(data), size(int(arg)))
			}
			got = append(got, arg)
		})
		tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
			deadline := p.Now() + 2*time.Second
			for len(got) < n && p.Now() < deadline {
				b.PollWait(p, time.Millisecond)
			}
			for k := 0; k < 60; k++ {
				b.Poll(p)
				p.Sleep(300 * time.Microsecond)
			}
		})
		ok := true
		tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
			payload := make([]byte, slices.Max(sizes))
			for k := 0; k < n; k++ {
				if err := a.Request(p, 1, 1, uint32(k), payload[:size(k)]); err != nil {
					ok = false
					return
				}
			}
			_ = a.Flush(p, 1) // a silent peer ends it with ErrPeerDead; the count decides
		})
		tb.Eng.Run()
		if !ok || len(got) != n {
			t.Logf("seed=%d rate=%.2f n=%d first size=%d: delivered %d/%d", seed, rate, n, size(0), len(got), n)
			return false
		}
		for k, v := range got {
			if v != uint32(k) {
				t.Logf("out of order at %d: %d", k, v)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: bulk stores land byte-exact at their offsets regardless of
// chunking, for arbitrary sizes and offsets within the exposed memory.
func TestStorePlacementProperty(t *testing.T) {
	prop := func(sizeRaw uint16, offRaw uint16, fill byte) bool {
		size := int(sizeRaw)%12000 + 1
		off := int(offRaw) % 50000
		tb := testbed.New(testbed.Config{Hosts: 2})
		defer tb.Close()
		a, _ := uam.New(tb.Hosts[0].NewProcess("a"), 0, uam.Config{})
		b, _ := uam.New(tb.Hosts[1].NewProcess("b"), 1, uam.Config{})
		if err := uam.Connect(tb.Manager, a, b); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		for i := range data {
			data[i] = fill ^ byte(i)
		}
		done := false
		tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
			deadline := p.Now() + time.Second
			for !done && p.Now() < deadline {
				b.PollWait(p, time.Millisecond)
			}
			for k := 0; k < 30; k++ {
				b.Poll(p)
				p.Sleep(200 * time.Microsecond)
			}
		})
		tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
			if err := a.Store(p, 1, off, data, 0, 0); err != nil {
				t.Error(err)
			}
			_ = a.Flush(p, 1) // the bytes in b's memory decide
			done = true
		})
		tb.Eng.Run()
		mem := b.Mem(off, size)
		for i := range mem {
			if mem[i] != data[i] {
				t.Logf("mismatch at %d (size=%d off=%d)", i, size, off)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
