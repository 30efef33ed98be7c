package uam_test

import (
	"math/rand"
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
// reliable stream delivers every message exactly once and in order.
func TestReliableStreamPropertyUnderLoss(t *testing.T) {
	prop := func(seed int64, lossPct uint8, nMsgs uint8, sizeSel uint8) bool {
		// Multi-cell messages amplify cell loss through AAL5 (a 1500-byte
		// message spans 32 cells), so keep the per-cell rate low enough
		// that the go-back-N recovery converges within the test budget.
		rate := float64(lossPct%40) / 1000 // 0-3.9% cell loss
		n := 5 + int(nMsgs%40)
		size := []int{0, 4, 16, 32, 64, 300, 1500}[int(sizeSel)%7]

		tb := testbed.New(testbed.Config{Hosts: 2, Seed: seed})
		defer tb.Close()
		a, err := uam.New(tb.Hosts[0].NewProcess("a"), 0, uam.Config{RetransmitTimeout: 300 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		b, err := uam.New(tb.Hosts[1].NewProcess("b"), 1, uam.Config{RetransmitTimeout: 300 * time.Microsecond})
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
			if len(data) != size {
				t.Errorf("payload length %d, want %d", len(data), size)
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
			payload := make([]byte, size)
			for k := 0; k < n; k++ {
				if err := a.Request(p, 1, 1, uint32(k), payload); err != nil {
					ok = false
					return
				}
			}
			a.FlushTimeout(p, 1, 2*time.Second)
		})
		tb.Eng.Run()
		if !ok || len(got) != n {
			t.Logf("seed=%d rate=%.2f n=%d size=%d: delivered %d/%d", seed, rate, n, size, len(got), n)
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
			a.FlushTimeout(p, 1, time.Second)
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
