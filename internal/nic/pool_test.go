package nic_test

import (
	"testing"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

// Pool-lifecycle tests for the drop paths in the receive pipeline
// (DESIGN.md §10): whenever the NIC cannot deliver a PDU — free queue
// empty, receive queue full — every pooled resource it took (reassembly
// slab, offset list, popped buffers) must go straight back, so a lossy
// steady state stays allocation-free and nothing leaks.

// drain receives n messages on ep and recycles everything, then runs the
// engine to quiescence.
func drain(tb *testbed.Testbed, ep *unet.Endpoint, n int, check func(unet.RecvDesc)) {
	ep.Host().Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			rd := ep.Recv(p)
			if check != nil {
				check(rd)
			}
			ep.Release(p, rd)
		}
	})
	tb.Eng.Run()
}

// TestBufferExhaustionRecycles drives deliverBuffered out of free buffers:
// the partially-popped buffers and the offset list must return to their
// pools, the drop must be counted, and the free queue must be whole enough
// to accept the next message that fits.
func TestBufferExhaustionRecycles(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 2) // only two receive buffers
	if err != nil {
		t.Fatal(err)
	}
	bufSize := pr.EpB.Config().RecvBufSize
	tooBig := 3 * bufSize // needs three buffers; pops two, then fails
	fits := 2 * bufSize

	tb.Hosts[0].Spawn("send", func(p *sim.Proc) {
		if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: tooBig}); err != nil {
			panic(err)
		}
	})
	tb.Eng.Run()

	if got := pr.EpB.Stats().DroppedNoBuffer; got != 1 {
		t.Fatalf("DroppedNoBuffer = %d, want 1", got)
	}
	dev := tb.Devices[1]
	if live := dev.ArenaStats().Live(); live != 0 {
		t.Fatalf("payload arena holds %d slab(s) after a no-buffer drop, want 0", live)
	}
	if live := dev.OffsetsStats().Live(); live != 0 {
		t.Fatalf("offset pool holds %d list(s) after a no-buffer drop, want 0", live)
	}

	// The two popped buffers went back to the free queue: a two-buffer
	// message must now be deliverable.
	tb.Hosts[0].Spawn("send", func(p *sim.Proc) {
		if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: fits}); err != nil {
			panic(err)
		}
	})
	tb.Eng.Run()
	if got := pr.EpB.Stats().Received; got != 1 {
		t.Fatalf("delivered = %d after refilling from the drop path, want 1", got)
	}
	if live := dev.OffsetsStats().Live(); live != 1 {
		t.Fatalf("offset pool Live = %d with one queued descriptor, want 1", live)
	}
	drain(tb, pr.EpB, 1, func(rd unet.RecvDesc) {
		if rd.Length != fits || len(rd.Buffers) != 2 {
			t.Errorf("recv = %d B in %d buffers, want %d B in 2", rd.Length, len(rd.Buffers), fits)
		}
	})
	if live := dev.OffsetsStats().Live(); live != 0 {
		t.Fatalf("offset pool Live = %d after Consume, want 0", live)
	}
	if live := dev.ArenaStats().Live(); live != 0 {
		t.Fatalf("payload arena Live = %d after drain, want 0", live)
	}
}

// TestRecvQueueOverflowRecyclesBuffered overflows a two-slot receive queue
// with buffered PDUs: overflowed messages must push their scattered
// buffers and offset lists back immediately, while the two queued
// descriptors hold exactly two offset lists until the application
// consumes them.
func TestRecvQueueOverflowRecyclesBuffered(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{RecvQueueCap: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1000 // multi-cell, one receive buffer

	tb.Hosts[0].Spawn("burst", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: size}); err != nil {
				panic(err)
			}
		}
	})
	tb.Eng.Run()

	st := pr.EpB.Stats()
	if st.DroppedQueueFull != 4 || st.Received != 2 {
		t.Fatalf("received %d / dropped %d, want 2 / 4", st.Received, st.DroppedQueueFull)
	}
	dev := tb.Devices[1]
	if live := dev.ArenaStats().Live(); live != 0 {
		t.Fatalf("payload arena Live = %d after scatter, want 0 (slabs recycled)", live)
	}
	if live := dev.OffsetsStats().Live(); live != 2 {
		t.Fatalf("offset pool Live = %d, want 2 (one list per queued descriptor)", live)
	}
	drain(tb, pr.EpB, 2, nil)
	if live := dev.OffsetsStats().Live(); live != 0 {
		t.Fatalf("offset pool Live = %d after drain, want 0", live)
	}
}

// TestRecvQueueOverflowRecyclesInline does the same for the single-cell
// fast path, where the queued descriptor owns the reassembly slab itself:
// overflow must recycle the slab at once, and Consume must return the two
// queued ones.
func TestRecvQueueOverflowRecyclesInline(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{RecvQueueCap: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	payload := pr.EpA.DescAt(pr.ChA, pr.StageA, 32).Inline

	tb.Hosts[0].Spawn("burst", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Inline: payload}); err != nil {
				panic(err)
			}
		}
	})
	tb.Eng.Run()

	st := pr.EpB.Stats()
	if st.DroppedQueueFull != 4 || st.Received != 2 {
		t.Fatalf("received %d / dropped %d, want 2 / 4", st.Received, st.DroppedQueueFull)
	}
	dev := tb.Devices[1]
	if live := dev.ArenaStats().Live(); live != 2 {
		t.Fatalf("payload arena Live = %d, want 2 (one slab per queued inline descriptor)", live)
	}
	drain(tb, pr.EpB, 2, func(rd unet.RecvDesc) {
		if rd.Inline == nil || rd.Length != 32 {
			t.Errorf("recv = %d B, inline=%v, want 32 B inline", rd.Length, rd.Inline != nil)
		}
	})
	if live := dev.ArenaStats().Live(); live != 0 {
		t.Fatalf("payload arena Live = %d after Consume, want 0", live)
	}
}
