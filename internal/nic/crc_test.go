package nic_test

import (
	"testing"

	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

// TestCrcDropRecyclesEagerly pins the receive-side CRC failure path
// (DESIGN.md §11): a wire-corrupted payload bit must be caught by the
// real AAL5 CRC-32, counted as Stats.CrcDrops, and every pooled resource
// the half-built PDU held — the reassembly slab above all — must go
// straight back to the arena (Live()==0), leaving the device ready for
// the next message.
func TestCrcDropRecyclesEagerly(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1000 // 21 cells per message
	const count = 4

	// Flip one payload bit of cell 25 on the switch→host1 link: a mid-PDU
	// cell of the second message. Its EOP cell then fails the CRC-32.
	inj := faults.NewNthCellCorrupt(25, 9)
	tb.Topo.Downlink(1).SetInjector(inj)

	tb.Hosts[0].Spawn("send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: size}); err != nil {
				panic(err)
			}
		}
	})
	tb.Eng.Run()

	st := tb.Devices[1].Stats()
	if st.CrcDrops != 1 || st.BadPDUs != 1 {
		t.Fatalf("CrcDrops = %d, BadPDUs = %d, want 1, 1", st.CrcDrops, st.BadPDUs)
	}
	if got := inj.Stats().Corrupted; got != 1 {
		t.Fatalf("injector corrupted %d cells, want 1", got)
	}
	if got := pr.EpB.Stats().Received; got != count-1 {
		t.Fatalf("delivered %d messages, want %d (one lost to CRC)", got, count-1)
	}
	dev := tb.Devices[1]
	if live := dev.OffsetsStats().Live(); live != count-1 {
		t.Fatalf("offset pool Live = %d with %d queued descriptors, want %d", live, count-1, count-1)
	}

	// Drain and verify nothing leaked: the corrupt PDU's slab went back the
	// moment the CRC failed, the delivered ones return through Consume.
	tb.Hosts[1].Spawn("drain", func(p *sim.Proc) {
		for i := 0; i < count-1; i++ {
			rd := pr.EpB.Recv(p)
			pr.EpB.Release(p, rd)
		}
	})
	tb.Eng.Run()
	if live := dev.ArenaStats().Live(); live != 0 {
		t.Fatalf("payload arena Live = %d after a CRC drop, want 0", live)
	}
	if live := dev.OffsetsStats().Live(); live != 0 {
		t.Fatalf("offset pool Live = %d after drain, want 0", live)
	}

	// The device must be whole: a further message still delivers.
	tb.Hosts[0].Spawn("again", func(p *sim.Proc) {
		if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: size}); err != nil {
			panic(err)
		}
	})
	tb.Eng.Run()
	if got := pr.EpB.Stats().Received; got != count {
		t.Fatalf("post-drop delivery failed: received = %d, want %d", got, count)
	}
	tb.Hosts[1].Spawn("drain2", func(p *sim.Proc) {
		rd := pr.EpB.Recv(p)
		pr.EpB.Release(p, rd)
	})
	tb.Eng.Run()
	if live := dev.ArenaStats().Live(); live != 0 {
		t.Fatalf("payload arena Live = %d at the end, want 0", live)
	}
}
