package unet_test

import (
	"bytes"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

// TestGather holds Endpoint.Gather to everything the five loops it replaced
// did by hand: the bytes that were sent come back, the caller pays exactly
// the per-buffer copy and free-queue push, every buffer and both kinds of
// pooled descriptor memory are home again afterwards, and a dst that has
// reached the message size is reused rather than reallocated.
func TestGather(t *testing.T) {
	const nbufs = 8
	for _, tc := range []struct {
		name    string
		bufSize int // 0 = the default 4160
		size    int
		bufs    int // receive buffers one message occupies; 0 = inline
	}{
		{"inline", 0, 24, 0},
		{"one buffer", 0, 1200, 1},
		{"three buffers", 1024, 3000, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, pr := newPair(t, unet.EndpointConfig{RecvBufSize: tc.bufSize}, nbufs)
			payload := make([]byte, tc.size)
			for i := range payload {
				payload[i] = byte(i*7 + 1)
			}
			if err := pr.EpA.Compose(nil, pr.StageA, payload); err != nil {
				t.Fatal(err)
			}
			// The cost the receiver must be charged: per buffer the copy of
			// its chunk then one free-queue push; inline, the one copy.
			node := pr.EpB.Host().Params
			want := node.CopyCost(tc.size) + time.Duration(tc.bufs)*node.FreePush

			var kick sim.Cond
			var dst []byte
			pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
				for {
					p.Wait(&kick)
					if err := pr.EpA.SendBlock(p, pr.EpA.DescAt(pr.ChA, pr.StageA, tc.size)); err != nil {
						panic(err)
					}
				}
			})
			pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
				for {
					rd := pr.EpB.Recv(p)
					if (rd.Inline != nil) != (tc.bufs == 0) || len(rd.Buffers) != tc.bufs {
						t.Errorf("arrived as %d buffers, inline %v; want %d", len(rd.Buffers), rd.Inline != nil, tc.bufs)
					}
					before := p.Now()
					dst = pr.EpB.Gather(p, rd, dst)
					if got := p.Now() - before; got != want {
						t.Errorf("Gather charged %v, want %v", got, want)
					}
				}
			})
			round := func() {
				tb.Eng.AtArg(tb.Eng.Now(), func(a any) { a.(*sim.Cond).Signal() }, &kick)
				tb.Eng.Run()
			}
			// More rounds than buffers: a buffer that did not come back
			// would run the free queue dry and drop.
			for i := 0; i < 3*nbufs; i++ {
				round()
				if !bytes.Equal(dst, payload) {
					t.Fatalf("round %d: gathered %d bytes that are not the %d sent", i, len(dst), len(payload))
				}
			}
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Errorf("a send-and-Gather round allocates %.1f objects with a grown dst, want 0", allocs)
			}
			dev := tb.Devices[1]
			if a, o := dev.ArenaStats().Live(), dev.OffsetsStats().Live(); a != 0 || o != 0 {
				t.Errorf("pooled descriptor memory still out: %d slabs, %d offset lists", a, o)
			}
			if st := pr.EpB.Stats(); st.DroppedNoBuffer+st.DroppedQueueFull != 0 {
				t.Errorf("drops: %+v", st)
			}
			free := 0
			for _, ok := pr.EpB.DevPopFree(); ok; _, ok = pr.EpB.DevPopFree() {
				free++
			}
			if free != nbufs {
				t.Errorf("free queue holds %d buffers after the run, %d before", free, nbufs)
			}
		})
	}
}

// TestReleaseReturnsBuffersWithoutCopy: Release is Gather minus the copy.
func TestReleaseReturnsBuffersWithoutCopy(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{RecvBufSize: 1024}, 4)
	var charged time.Duration
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		rd := pr.EpB.Recv(p)
		before := p.Now()
		pr.EpB.Release(p, rd)
		charged = p.Now() - before
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.SendBlock(p, pr.EpA.DescAt(pr.ChA, pr.StageA, 3000))
	})
	tb.Eng.Run()
	if want := 3 * pr.EpB.Host().Params.FreePush; charged != want {
		t.Errorf("Release of a three-buffer message charged %v, want %v", charged, want)
	}
	if live := tb.Devices[1].OffsetsStats().Live(); live != 0 {
		t.Errorf("%d offset lists still out", live)
	}
}

// TestStagingReproducesDeletedAllocators is why no report moved when four
// layers' private staging arithmetic became unet.Staging: for each call
// pattern it replaced, the allocator yields offset for offset what the
// deleted code — kept here, verbatim, as the oracle — yielded.
func TestStagingReproducesDeletedAllocators(t *testing.T) {
	// Message sizes with no pattern that could hide a wrap bug.
	sizes := func(i, max int) int { return 1 + (i*2654435761)%max }

	t.Run("ip.UNetConduit stage/stageSize/stageNext", func(t *testing.T) {
		const mtu, base = 9 * 1024, 16 * 4160
		stage, stageSize, stageNext := base, 72*mtu, 0
		s := unet.NewStaging(base, 72*mtu)
		for i := 0; i < 5000; i++ {
			n := sizes(i, mtu)
			if stageNext+n > stageSize {
				stageNext = 0
			}
			want := stage + stageNext
			stageNext += n
			if got := s.Next(n); got != want {
				t.Fatalf("packet %d (%d B): offset %d, the conduit staged at %d", i, n, got, want)
			}
		}
	})
	t.Run("unet.emuState.allocTx", func(t *testing.T) {
		const txBase, txSize = 0, 160 << 10
		txNext := 0
		s := unet.NewStaging(txBase, txSize)
		for i := 0; i < 5000; i++ {
			n := sizes(i, 8192+4)
			if txNext+n > txBase+txSize {
				txNext = txBase
			}
			want := txNext
			txNext += n
			if got := s.Next(n); got != want {
				t.Fatalf("message %d (%d B): offset %d, allocTx gave %d", i, n, got, want)
			}
		}
	})
	t.Run("uam.UAM ctrlBase/ctrlNext", func(t *testing.T) {
		const headerSize, sendQueueCap, ctrlBase = 8, 64, 8 * 3 * 8 * 4168
		ctrlNext := 0
		s := unet.NewStaging(ctrlBase, (sendQueueCap+1)*headerSize)
		for i := 0; i < 1000; i++ {
			want := ctrlBase + ctrlNext*headerSize
			ctrlNext = (ctrlNext + 1) % (sendQueueCap + 1)
			if got := s.Next(headerSize); got != want {
				t.Fatalf("control message %d: offset %d, the ring gave %d", i, got, want)
			}
		}
	})
	t.Run("experiments.Gossip (seq%512)*4", func(t *testing.T) {
		s := unet.NewStaging(0, 512*4)
		for seq := 0; seq < 3000; seq++ {
			if got, want := s.Next(4), (seq%512)*4; got != want {
				t.Fatalf("rumour %d: offset %d, gossip staged at %d", seq, got, want)
			}
		}
	})
}

// TestDescAt pins the one inline-or-offset decision: inline, aliasing the
// segment, up to the device's single-cell limit; by offset past it; and by
// offset always on a device without the fast path.
func TestDescAt(t *testing.T) {
	_, pr := newPair(t, unet.EndpointConfig{}, 4)
	const off = 20000
	msg := bytes.Repeat([]byte{0x5A}, atm.SingleCellMax+1)
	if err := pr.EpA.Compose(nil, off, msg); err != nil {
		t.Fatal(err)
	}
	d := pr.EpA.DescAt(pr.ChA, off, atm.SingleCellMax)
	if d.Channel != pr.ChA || !bytes.Equal(d.Inline, msg[:atm.SingleCellMax]) || &d.Inline[0] != &pr.EpA.DescAt(pr.ChA, off, 1).Inline[0] {
		t.Errorf("%d B: %+v, want the segment's own bytes inline", atm.SingleCellMax, d)
	}
	d = pr.EpA.DescAt(pr.ChA, off, atm.SingleCellMax+1)
	if d.Inline != nil || d.Offset != off || d.Length != atm.SingleCellMax+1 || d.Channel != pr.ChA {
		t.Errorf("%d B: %+v, want offset and length", atm.SingleCellMax+1, d)
	}

	sba100 := nic.SBA100Params()
	tb := testbed.New(testbed.Config{Hosts: 2, NIC: &sba100})
	t.Cleanup(tb.Close)
	old, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 8, atm.SingleCellMax} {
		if d := old.EpA.DescAt(old.ChA, off, n); d.Inline != nil || d.Offset != off || d.Length != n {
			t.Errorf("SBA-100, %d B: %+v, want offset and length", n, d)
		}
	}
}
