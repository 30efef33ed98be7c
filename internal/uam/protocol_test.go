package uam

import (
	"testing"
	"time"

	"unet/internal/sim"
	"unet/internal/testbed"
)

// TestOverdueDeadlineRetransmitsBeforeReceiving pins pollOrTimeout's order
// once the retransmit deadline has passed: go-back-N first, the receive
// queue second — even when the acknowledgment that would have spared the
// retransmission is already queued. Looking first changes what a sender
// that stalled past its deadline puts on the wire, and no golden notices.
func TestOverdueDeadlineRetransmitsBeforeReceiving(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	defer tb.Close()
	var us [2]*UAM
	for i := range us {
		var err error
		// A window of two solicits an ack with the very first message.
		if us[i], err = New(tb.Hosts[i].NewProcess("am"), i, Config{Window: 2}); err != nil {
			t.Fatal(err)
		}
		us[i].RegisterHandler(1, func(*UAM, *sim.Proc, int, uint32, []byte) {})
	}
	if err := Connect(tb.Manager, us[0], us[1]); err != nil {
		t.Fatal(err)
	}
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for p.Now() < 5*time.Millisecond {
			us[1].PollWait(p, time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		a := us[0]
		if err := a.Request(p, 1, 1, 0, nil); err != nil {
			t.Error(err)
			return
		}
		pe := a.peers[1]
		// Not polling: the server's ack arrives and waits in the receive queue.
		p.Sleep(pe.deadline - p.Now() + time.Microsecond)
		if pe.outstanding() != 1 || a.ep.RecvPending() != 1 {
			t.Errorf("setup: %d outstanding, %d queued; want 1 and 1", pe.outstanding(), a.ep.RecvPending())
			return
		}
		a.pollOrTimeout(p, pe)
		if got := a.Stats().Retransmits; got != 1 || pe.outstanding() != 1 {
			t.Errorf("overdue call: %d retransmits, %d outstanding; want the retransmission first (1 and 1)", got, pe.outstanding())
		}
		a.pollOrTimeout(p, pe)
		if got := a.Stats().Retransmits; got != 1 || pe.outstanding() != 0 {
			t.Errorf("next call: %d retransmits, %d outstanding; want the ack consumed (1 and 0)", got, pe.outstanding())
		}
	})
	tb.Eng.Run()
}
