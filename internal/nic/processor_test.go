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
// tests pin the places where that shows: who may queue an event for it,
// what a doorbell and an idle wake at one instant do to each other, how
// many events a PDU costs an idle receiver, and that Start makes exactly
// one of it.

const us = time.Microsecond

type nullSink struct{}

func (nullSink) DeliverTrain([]atm.Cell, time.Duration, time.Duration) {}

// bareDevice is one SBA-200 on its own engine, its uplink going nowhere,
// with one endpoint receiving on VCI 5.
func bareDevice(t testing.TB) (*sim.Engine, *Device, *unet.Endpoint) {
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
	// A broken invariant inside step (here: a nil endpoint in the table the
	// send scan walks) comes out of Run naming the NIC, as a process's panic
	// names the process.
	e, d, _ := bareDevice(t)
	e.At(10*us, func() {
		d.eps = append(d.eps, nil)
		d.KickTx(nil)
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
	e.At(10*us, func() { d.DeliverTrain(cells, 10*us, fabric.DefaultCellTime) })
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
	// A two-cell train arrives at 10 µs with its second cell stamped 30 µs.
	// The idle processor takes neither yet: the first has no observable
	// effect, and it arms one wake for the second, the PDU's last. A
	// doorbell then rings
	//   - at 30 µs, from an event scheduled before the wake was: the ring
	//     takes both cells, and the wake already armed for 30 µs delivers;
	//   - at 20 µs: the ring takes the first cell (charged from 10 µs) and
	//     moves the wake to 20 µs, when the processor is free to send; the
	//     empty scan leaves it idle with the wake armed for 30 µs again.
	// Either way the second cell is processed once, at 30 µs, and the PDU
	// delivered RxPerCell + RxFixed later.
	for _, tc := range []struct {
		name  string
		ring  time.Duration
		steps uint64
	}{
		// start, arrival, ring, wake, sleep to delivery (in place), upcall.
		{"same instant", 30 * us, 6},
		// start, arrival, ring, wake to send, wake, sleep to delivery (in
		// place), upcall; the wake the ring moved is discarded without a
		// step.
		{"earlier", 20 * us, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, d, ep := bareDevice(t)
			cells := atm.Segment(5, make([]byte, 48))
			e.At(10*us, func() { d.DeliverTrain(cells, 10*us, 20*us) })
			var deliveredAt time.Duration
			ep.SetUpcall(unet.UpcallNonEmpty, false, func() { deliveredAt = e.Now() })
			e.At(tc.ring, func() {
				if !d.idle || d.in.Len() != 2 || d.wakeAt != 30*us {
					t.Errorf("at the ring: idle=%v with %d cell(s) queued, wake at %v; want idle over both cells, the wake at 30µs", d.idle, d.in.Len(), d.wakeAt)
				}
				before := e.PendingEvents()
				d.KickTx(ep)
				if want := (tc.ring - 10*us) / (20 * us); d.stats.CellsIn != uint64(1+want) || d.wakeAt != tc.ring {
					t.Errorf("after the ring: %d cell(s) taken, wake at %v; want %d, %v", d.stats.CellsIn, d.wakeAt, 1+want, tc.ring)
				}
				if tc.ring == 30*us && e.PendingEvents() != before {
					t.Errorf("a ring at the wake's instant queued %d event(s)", e.PendingEvents()-before)
				}
			})
			if tc.ring < 30*us {
				e.At(tc.ring+us, func() {
					if !d.idle || d.txDoorbell || d.in.Len() != 1 || d.wakeAt != 30*us {
						t.Errorf("after the empty scan: idle=%v doorbell=%v, %d cell(s) queued, wake at %v; want idle again over the second cell, the wake at 30µs", d.idle, d.txDoorbell, d.in.Len(), d.wakeAt)
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

func TestIdleReceiverWakesOncePerPDU(t *testing.T) {
	// A 1 KB PDU, 22 cells back to back, reaches an idle SBA-200, whose
	// 1.5 µs a cell is faster than the fiber: the processor keeps up, and
	// only the last cell has anything to show. It wakes once, at that
	// cell's arrival, takes all 22, and delivers RxPerCell + RxFixed later.
	e, d, ep := bareDevice(t)
	cells := atm.Segment(5, make([]byte, 1024))
	if len(cells) != 22 {
		t.Fatalf("%d cells, want 22", len(cells))
	}
	ct := fabric.DefaultCellTime
	e.At(10*us, func() { d.DeliverTrain(cells, 10*us, ct) })
	var deliveredAt time.Duration
	ep.SetUpcall(unet.UpcallNonEmpty, false, func() { deliveredAt = e.Now() })
	e.Run()
	if want := 10*us + 21*ct + d.params.RxPerCell + d.params.RxFixed; deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if st := d.Stats(); st.CellsIn != 22 || st.PDUsIn != 1 || ep.Stats().Received != 1 {
		t.Fatalf("%+v, endpoint received %d; want 22 cells, 1 PDU, 1 message", st, ep.Stats().Received)
	}
	// start, arrival, the wake at the last cell's arrival, sleep to the
	// delivery (in place), upcall.
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}

	// The same PDU without its EOP cell has nothing to show, but the one
	// wake still comes at the last cell's arrival: a run that ends there
	// has taken every cell, and a doorbell after it finds the FIFO empty.
	e, d, ep = bareDevice(t)
	last := 10*us + 20*ct
	e.At(10*us, func() {
		d.DeliverTrain(cells[:21], 10*us, ct)
		if !d.armed || d.wakeAt != last {
			t.Errorf("armed=%v for %v, want one wake at the last cell's arrival %v", d.armed, d.wakeAt, last)
		}
	})
	e.RunUntil(last)
	if st := d.Stats(); st.CellsIn != 21 || st.PDUsIn != 0 || d.in.Len() != 0 {
		t.Fatalf("at %v: %+v with %d cell(s) queued; want 21 cells taken, no PDU, none queued", last, st, d.in.Len())
	}
	e.At(last+us, func() { d.KickTx(ep) })
	e.Run()
	if st := d.Stats(); st.CellsIn != 21 || st.PDUsIn != 0 || st.Doorbells != 1 || !d.idle || d.armed {
		t.Fatalf("after the doorbell: %+v, idle=%v armed=%v; want 21 cells, no PDU, 1 ring, idle with no wake", st, d.idle, d.armed)
	}
}

// BenchmarkDevice_IdleReceive1K is the NIC's receive rung alone: a 1 KB
// (22-cell) PDU arrives back to back at an idle SBA-200 and is delivered
// into its endpoint's buffers, then the application hands the buffer back.
// It reports the host time and the engine events each PDU costs.
func BenchmarkDevice_IdleReceive1K(b *testing.B) {
	e, d, ep := bareDevice(b)
	cells := atm.Segment(5, make([]byte, 1024))
	train := func() { d.DeliverTrain(cells, e.Now(), fabric.DefaultCellTime) }
	steps := e.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		e.At(e.Now()+200*us, train)
		e.Run()
		rd, ok := ep.PollRecv(nil)
		if !ok {
			b.Fatal("the PDU was not delivered")
		}
		ep.Release(nil, rd)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/PDU")
	b.ReportMetric(float64(e.Steps()-steps)/float64(b.N), "events/PDU")
}
