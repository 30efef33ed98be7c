package nic

import (
	"strings"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
	"unet/internal/unet"
)

// The processor is an event handler (Device.step), not a process. These
// tests pin the three places where that shows: who may queue an event for
// it, what a doorbell and an idle timeout at one instant do to each other,
// and that Start makes exactly one of it.

const us = time.Microsecond

type nullSink struct{}

func (nullSink) DeliverCell(atm.Cell) {}

// bareDevice is one SBA-200 on its own engine, its uplink going nowhere,
// with one endpoint receiving on VCI 5.
func bareDevice(t *testing.T) (*sim.Engine, *Device, *unet.Endpoint) {
	t.Helper()
	e := sim.New(1)
	t.Cleanup(e.Shutdown)
	h := unet.NewHost(e, "host")
	d := New(e, h, SBA200Params(), fabric.NewLink(e, "up", fabric.DefaultLinkParams(), nullSink{}))
	h.SetDevice(d)
	d.Start()
	ep, err := h.Kernel.CreateEndpoint(nil, h.NewProcess("app"), unet.EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.ProvideRecvBuffers(nil, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.OpenChannel(ep, 0, 5, 5); err != nil {
		t.Fatal(err)
	}
	return e, d, ep
}

func TestStartTwicePanics(t *testing.T) {
	_, d, _ := bareDevice(t)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "host/sba200 started twice") {
			t.Fatalf("second Start: recovered %q, want a panic naming the device", r)
		}
	}()
	d.Start()
}

func TestProcessorPanicNamesTheDevice(t *testing.T) {
	// A broken invariant inside step (here: a FIFO count with no FIFO behind
	// it) comes out of Run naming the NIC, as a process's panic names the
	// process.
	e, d, _ := bareDevice(t)
	e.At(10*us, func() {
		d.in, d.inn = nil, 1
		d.wake()
	})
	defer func() {
		if r, _ := recover().(string); !strings.HasPrefix(r, "nic: host/sba200 processor panicked: ") {
			t.Fatalf("Run: recovered %q, want a panic naming the device", r)
		}
	}()
	e.Run()
}

func TestDoorbellDuringSleepQueuesNothing(t *testing.T) {
	// A single-cell PDU lands at 10 µs; the processor charges RxSingleCell
	// and sleeps to 19.7 µs. A foreign event at 12 µs keeps that sleep from
	// being taken in place, and rings the doorbell: the processor is neither
	// idle nor running, so the ring latches and queues no event — the
	// processor finds it when it has delivered.
	e, d, ep := bareDevice(t)
	cells := atm.Segment(5, make([]byte, 16))
	e.At(10*us, func() { d.DeliverCell(cells[0]) })
	var deliveredAt time.Duration
	ep.SetUpcall(unet.UpcallNonEmpty, false, func() { deliveredAt = e.Now() })
	e.At(12*us, func() {
		if d.idle || d.pend.kind != pendInline {
			t.Errorf("at 12µs: idle=%v pend=%d, want the processor asleep over an inline delivery", d.idle, d.pend.kind)
		}
		before := e.PendingEvents()
		d.KickTx(ep)
		d.KickTx(ep)
		if got := e.PendingEvents(); got != before {
			t.Errorf("doorbells during a sleep queued %d event(s)", got-before)
		}
		if !d.txDoorbell {
			t.Error("doorbell not latched")
		}
	})
	e.Run()
	if want := 10*us + rxSingleCell; deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if st := d.Stats(); st.Doorbells != 2 || st.DoorbellsCoalesced != 1 || d.txDoorbell || !d.idle {
		t.Fatalf("after the run: %+v, doorbell latched=%v idle=%v; want 2 rings, 1 coalesced, latch cleared by an empty scan, idle", st, d.txDoorbell, d.idle)
	}
	// start, arrival, wake, foreign, the queued sleep, the upcall: nothing
	// for the rings.
	if e.Steps() != 6 {
		t.Fatalf("Steps = %d, want 6", e.Steps())
	}
}

func TestDoorbellAndFutureStampedCell(t *testing.T) {
	// A two-cell train arrives at 10 µs with its second cell stamped 30 µs:
	// the processor takes the first, and goes idle with a timeout armed for
	// the second. A doorbell then rings
	//   - at 30 µs, from an event scheduled before the timeout was: the wake
	//     it queues fires after the timeout, which finds the processor
	//     already woken and does nothing;
	//   - at 20 µs: the wake cancels the timeout when it fires, the empty
	//     scan sends the processor idle again, and a second timeout is armed.
	// Either way the second cell is processed once, at 30 µs, and the PDU
	// delivered RxPerCell + RxFixed later.
	for _, tc := range []struct {
		name  string
		ring  time.Duration
		steps uint64
	}{
		// start, arrival, wake, sleep to 11.5µs (in place), ring, timeout
		// (no-op), wake, sleep to delivery (in place), upcall.
		{"same instant", 30 * us, 9},
		// start, arrival, wake, sleep to 11.5µs (in place), ring, wake,
		// second timeout, sleep to delivery (in place), upcall; the canceled
		// first timeout is discarded without a step.
		{"earlier", 20 * us, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, d, ep := bareDevice(t)
			cells := atm.Segment(5, make([]byte, 48))
			e.At(10*us, func() { d.DeliverTrain(cells, 10*us, 20*us) })
			var deliveredAt time.Duration
			ep.SetUpcall(unet.UpcallNonEmpty, false, func() { deliveredAt = e.Now() })
			e.At(tc.ring, func() {
				if !d.idle || d.inn != 1 {
					t.Errorf("at the ring: idle=%v with %d cell(s) queued, want idle over the future-stamped cell", d.idle, d.inn)
				}
				d.KickTx(ep)
				if d.idle {
					t.Error("doorbell left the processor idle")
				}
			})
			if tc.ring < 30*us {
				e.At(tc.ring+us, func() {
					if !d.idle || d.txDoorbell {
						t.Errorf("after the empty scan: idle=%v doorbell=%v, want idle again", d.idle, d.txDoorbell)
					}
				})
			}
			e.Run()
			if want := 30*us + d.params.RxPerCell + d.params.RxFixed; deliveredAt != want {
				t.Fatalf("delivered at %v, want %v", deliveredAt, want)
			}
			if st := d.Stats(); st.CellsIn != 2 || st.PDUsIn != 1 || ep.Stats().Received != 1 {
				t.Fatalf("%+v, endpoint received %d; want 2 cells, 1 PDU, 1 message", st, ep.Stats().Received)
			}
			steps := tc.steps
			if tc.ring < 30*us {
				steps++ // the probe after the ring
			}
			if e.Steps() != steps || e.PendingEvents() != 0 {
				t.Fatalf("Steps = %d with %d event(s) left, want %d and none", e.Steps(), e.PendingEvents(), steps)
			}
		})
	}
}
