package tcp_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"unet/internal/atm"
	"unet/internal/faults"
	"unet/internal/ip/tcp"
	"unet/internal/sim"
	"unet/internal/testbed"
)

// Property: for arbitrary write-size sequences and arbitrary (bounded)
// cell-loss patterns, the byte stream arrives intact and in order.
func TestStreamIntegrityProperty(t *testing.T) {
	prop := func(seed int64, lossPct uint8, sizes []uint16) bool {
		// Cell loss amplifies through AAL5: one lost cell discards the
		// whole segment (§7.8), so a 2 KB segment (44 cells) sees
		// 1-(1-r)^44 segment loss. Keep r in the sub-percent range the
		// protocol can realistically recover from.
		rate := float64(lossPct%10) / 1000 // 0-0.9% cell loss
		if len(sizes) == 0 {
			sizes = []uint16{1}
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		total := 0
		var src []byte
		for i, sz := range sizes {
			n := int(sz)%6000 + 1
			total += n
			chunk := make([]byte, n)
			for j := range chunk {
				chunk[j] = byte(i*31 + j)
			}
			src = append(src, chunk...)
		}

		tb := testbed.New(testbed.Config{Hosts: 2, Seed: seed})
		defer tb.Close()
		ca, cb, err := tb.NewIPConduitPair(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		a := tcp.New(ca, 5000, 80, tcp.DefaultParams())
		b := tcp.New(cb, 80, 5000, tcp.DefaultParams())
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		loss := func(atm.Cell) bool { return rng.Float64() < rate }
		tb.Net.Downlink(0).SetInjector(faults.DropIf(loss))
		tb.Net.Downlink(1).SetInjector(faults.DropIf(loss))

		var got []byte
		tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
			if err := b.Accept(p, 5*time.Second); err != nil {
				return
			}
			buf := make([]byte, 32<<10)
			deadline := p.Now() + 60*time.Second
			for len(got) < total && p.Now() < deadline {
				n, err := b.Read(p, buf, 500*time.Millisecond)
				if err != nil {
					return
				}
				got = append(got, buf[:n]...)
			}
			for k := 0; k < 80; k++ {
				b.Poll(p)
				p.Sleep(time.Millisecond)
			}
		})
		tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
			if err := a.Dial(p, 5*time.Second); err != nil {
				return
			}
			off := 0
			for _, sz := range sizes {
				n := int(sz)%6000 + 1
				if err := a.Write(p, src[off:off+n]); err != nil {
					return
				}
				off += n
			}
			a.Flush(p, 60*time.Second)
		})
		tb.Eng.Run()
		if !bytes.Equal(got, src) {
			t.Logf("seed=%d rate=%.2f total=%d: got %d bytes (retrans=%d timeouts=%d)",
				seed, rate, total, len(got), a.Stats().Retransmits, a.Stats().Timeouts)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: sequence arithmetic survives wraparound — a long transfer that
// crosses the 32-bit sequence space boundary stays correct. (The initial
// sequence number is near the top of the space via a connection that has
// already moved its window; modeled by transferring > 2^32 bytes being
// impractical, we instead check the helpers directly.)
func TestSeqArithmeticWraparound(t *testing.T) {
	if !tcp.SeqLT(0xFFFFFF00, 0x00000010) {
		t.Fatal("seqLT fails across wraparound")
	}
	if tcp.SeqLT(0x00000010, 0xFFFFFF00) {
		t.Fatal("seqLT inverted across wraparound")
	}
	if !tcp.SeqLEQ(5, 5) {
		t.Fatal("seqLEQ not reflexive")
	}
}
