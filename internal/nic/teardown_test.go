package nic_test

import (
	"fmt"
	"testing"
	"time"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

// TestTeardownWhileCharging tears a receiving endpoint's channel down at 80
// instants a microsecond apart while host 0 streams 50 messages at it.
// Many of those instants fall between the NI finishing a PDU's accounting
// and the clock reaching its cost cursor — the processor asleep with the
// delivery pending. The PDU must then be dropped and counted, its slab
// returned, and nothing dereferenced that the teardown cleared (the row's
// endpoint pointer: a nil dereference inside the NI, once).
func TestTeardownWhileCharging(t *testing.T) {
	type fixture struct {
		tb   *testbed.Testbed
		proc *unet.Process
		ep   *unet.Endpoint
		ch   *unet.Channel
	}
	for _, tc := range []struct {
		name     string
		teardown func(p *sim.Proc, fx *fixture)
		open     bool // the channel survives: every PDU is delivered
	}{
		{"DestroyEndpoint", func(p *sim.Proc, fx *fixture) {
			if err := fx.tb.Hosts[1].Kernel.DestroyEndpoint(p, fx.proc, fx.ep); err != nil {
				panic(err)
			}
		}, false},
		{"Disconnect", func(p *sim.Proc, fx *fixture) { fx.tb.Manager.Disconnect(p, fx.ch) }, false},
		// Opening channels grows the demux table and moves its rows; the
		// pending delivery's own row is still open, wherever it now lives.
		{"OpenChannel", func(p *sim.Proc, fx *fixture) {
			other, err := fx.tb.Hosts[0].Kernel.CreateEndpoint(nil, fx.tb.Hosts[0].NewProcess("other"), unet.EndpointConfig{})
			if err != nil {
				panic(err)
			}
			before := fx.tb.Devices[1].TableLen()
			for i := 0; i < 64; i++ {
				if _, err := fx.tb.Manager.Connect(nil, other, fx.ep); err != nil {
					panic(err)
				}
			}
			if fx.tb.Devices[1].TableLen() < before+64 {
				panic("demux table did not grow")
			}
		}, true},
	} {
		for _, size := range []int{16, 1024} {
			t.Run(fmt.Sprint(tc.name, "/", size, "B"), func(t *testing.T) {
				const msgs = 50
				var closedDrops uint64
				for k := 0; k < 80; k++ {
					tb := testbed.New(testbed.Config{Hosts: 2})
					fx := &fixture{tb: tb, proc: tb.Hosts[1].NewProcess("app")}
					src, err := tb.Hosts[0].Kernel.CreateEndpoint(nil, tb.Hosts[0].NewProcess("app"), unet.EndpointConfig{})
					if err != nil {
						t.Fatal(err)
					}
					fx.ep, err = tb.Hosts[1].Kernel.CreateEndpoint(nil, fx.proc, unet.EndpointConfig{RecvQueueCap: 2 * msgs})
					if err != nil {
						t.Fatal(err)
					}
					if fx.ch, err = tb.Manager.Connect(nil, src, fx.ep); err != nil {
						t.Fatal(err)
					}
					if _, err := fx.ep.ProvideRecvBuffers(nil, 0, msgs); err != nil {
						t.Fatal(err)
					}
					stage := testbed.SendBase(src, 0)
					tb.Hosts[0].Spawn("send", func(p *sim.Proc) {
						for i := 0; i < msgs; i++ {
							if err := src.SendBlock(p, src.DescAt(fx.ch.ChanA, stage, size)); err != nil {
								panic(err)
							}
						}
					})
					tb.Hosts[1].Spawn("teardown", func(p *sim.Proc) {
						p.Sleep(100*time.Microsecond + time.Duration(k)*time.Microsecond)
						tc.teardown(p, fx)
					})
					tb.Eng.Run()

					// What reached the endpoint before the teardown is the
					// application's to hand back; the NI must hold nothing.
					for {
						rd, ok := fx.ep.PollRecv(nil)
						if !ok {
							break
						}
						fx.ep.Release(nil, rd)
					}
					dev := tb.Devices[1]
					st, es := dev.Stats(), fx.ep.Stats()
					if live := dev.ArenaStats().Live(); live != 0 {
						t.Fatalf("k=%d: payload arena holds %d slab(s) after the teardown, want 0", k, live)
					}
					if live := dev.OffsetsStats().Live(); live != 0 {
						t.Fatalf("k=%d: offset pool holds %d list(s) after the teardown, want 0", k, live)
					}
					if st.PDUsIn != es.Received+st.ClosedDrops || es.DroppedQueueFull+es.DroppedNoBuffer != 0 {
						t.Fatalf("k=%d: %d PDUs in, %d received + %d closed drops (endpoint %+v)", k, st.PDUsIn, es.Received, st.ClosedDrops, es)
					}
					if tc.open && (es.Received != msgs || st.ClosedDrops != 0) {
						t.Fatalf("k=%d: received %d of %d with %d closed drops across a table move", k, es.Received, msgs, st.ClosedDrops)
					}
					if !tc.open && es.Received == msgs {
						t.Fatalf("k=%d: received all %d: the teardown missed the stream", k, msgs)
					}
					closedDrops += st.ClosedDrops
					tb.Close()
				}
				// The sweep is only a probe if some instants hit the window.
				if !tc.open && closedDrops < 10 {
					t.Fatalf("%d PDUs dropped for a closed channel over 80 instants, want at least 10", closedDrops)
				}
			})
		}
	}
}
