package unet_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

func newPair(t *testing.T, cfg unet.EndpointConfig, nbufs int) (*testbed.Testbed, *testbed.Pair) {
	t.Helper()
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	pr, err := tb.NewPair(0, 1, cfg, nbufs)
	if err != nil {
		t.Fatal(err)
	}
	return tb, pr
}

func TestSingleCellMessageRoundTrip(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 8)
	msg := []byte("ping!")
	var got []byte
	var gotCh unet.ChannelID
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		rd := pr.EpB.Recv(p)
		if rd.Inline == nil {
			t.Error("small message not delivered inline")
		}
		got = append([]byte(nil), rd.Inline...)
		gotCh = rd.Channel
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		if err := pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Inline: msg}); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
	if gotCh != pr.ChB {
		t.Fatalf("origin channel = %d, want %d", gotCh, pr.ChB)
	}
}

func TestBufferedMessageRoundTrip(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 8)
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 600) // 1200 bytes, multi-cell
	var got []byte
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		rd := pr.EpB.Recv(p)
		if rd.Inline != nil {
			t.Error("large message delivered inline")
		}
		got = make([]byte, rd.Length)
		n := 0
		for _, off := range rd.Buffers {
			chunk := min(rd.Length-n, pr.EpB.Config().RecvBufSize)
			if err := pr.EpB.ReadBuf(p, off, got[n:n+chunk]); err != nil {
				t.Error(err)
			}
			n += chunk
		}
		pr.EpB.Release(p, rd)
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		if err := pr.EpA.Compose(p, pr.StageA, payload); err != nil {
			t.Error(err)
		}
		if err := pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: len(payload)}); err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %d bytes", len(got))
	}
}

func TestMultiBufferScatter(t *testing.T) {
	// A message larger than one receive buffer must scatter across several.
	cfg := unet.EndpointConfig{RecvBufSize: 1024}
	tb, pr := newPair(t, cfg, 8)
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var nbufs int
	var got []byte
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		rd := pr.EpB.Recv(p)
		nbufs = len(rd.Buffers)
		got = make([]byte, rd.Length)
		for i, off := range rd.Buffers {
			lo := i * 1024
			hi := min(lo+1024, rd.Length)
			pr.EpB.ReadBuf(p, off, got[lo:hi])
		}
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Compose(p, pr.StageA, payload)
		pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: len(payload)})
	})
	tb.Eng.Run()
	if nbufs != 3 {
		t.Fatalf("scattered into %d buffers, want 3", nbufs)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after scatter")
	}
}

func TestSendUnregisteredChannelRejected(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4)
	var err1, err2 error
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		err1 = pr.EpA.Send(p, unet.SendDesc{Channel: 99, Inline: []byte("x")})
		err2 = pr.EpA.Send(p, unet.SendDesc{Channel: -1, Inline: []byte("x")})
	})
	tb.Eng.Run()
	if !errors.Is(err1, unet.ErrNoChannel) || !errors.Is(err2, unet.ErrNoChannel) {
		t.Fatalf("errs = %v, %v; want ErrNoChannel", err1, err2)
	}
}

func TestSendOutOfSegmentRejected(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4)
	var errs []error
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		seg := pr.EpA.Config().SegmentSize
		errs = append(errs,
			pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Offset: seg - 10, Length: 100}),
			pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Offset: -1, Length: 10}),
			pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Offset: 0, Length: -5}),
		)
	})
	tb.Eng.Run()
	for i, err := range errs {
		if !errors.Is(err, unet.ErrBadOffset) {
			t.Fatalf("case %d: err = %v, want ErrBadOffset", i, err)
		}
	}
}

func TestSendBlockDrainsBackpressure(t *testing.T) {
	cfg := unet.EndpointConfig{SendQueueCap: 2}
	tb, pr := newPair(t, cfg, 8)
	const n = 30
	received := 0
	sawFull := false
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			rd := pr.EpB.Recv(p)
			pr.EpB.Release(p, rd)
			received++
		}
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// Demonstrate that plain Send reports back-pressure at least once
			// with a 2-deep queue, and that SendBlock always gets through.
			if err := pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{byte(i)}}); err != nil {
				if !errors.Is(err, unet.ErrSendQueueFull) {
					t.Error(err)
					return
				}
				sawFull = true
				if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{byte(i)}}); err != nil {
					t.Error(err)
				}
			}
		}
	})
	tb.Eng.Run()
	if received != n {
		t.Fatalf("received %d, want %d", received, n)
	}
	if !sawFull {
		t.Fatal("2-deep send queue never exerted back-pressure")
	}
}

func TestNoFreeBuffersDropsAndCounts(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 0) // no receive buffers at B
	payload := make([]byte, 500)
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Compose(p, pr.StageA, payload)
		pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: len(payload)})
	})
	tb.Eng.Run()
	st := pr.EpB.Stats()
	if st.DroppedNoBuffer != 1 {
		t.Fatalf("DroppedNoBuffer = %d, want 1", st.DroppedNoBuffer)
	}
	if st.Received != 0 {
		t.Fatalf("Received = %d, want 0", st.Received)
	}
}

func TestSingleCellNeedsNoFreeBuffer(t *testing.T) {
	// The receive fast path stores small messages in the queue entry
	// itself (§4.2.2), so they arrive even with an empty free queue.
	tb, pr := newPair(t, unet.EndpointConfig{}, 0)
	delivered := false
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		rd := pr.EpB.Recv(p)
		delivered = rd.Inline != nil
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte("small")})
	})
	tb.Eng.Run()
	if !delivered {
		t.Fatal("single-cell message not delivered without free buffers")
	}
}

func TestRecvQueueOverflowDrops(t *testing.T) {
	cfg := unet.EndpointConfig{RecvQueueCap: 4}
	tb, pr := newPair(t, cfg, 8)
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{byte(i)}})
		}
	})
	// No receiver drains B.
	tb.Eng.Run()
	st := pr.EpB.Stats()
	if st.Received != 4 {
		t.Fatalf("Received = %d, want 4 (queue cap)", st.Received)
	}
	if st.DroppedQueueFull != 6 {
		t.Fatalf("DroppedQueueFull = %d, want 6", st.DroppedQueueFull)
	}
}

func TestUpcallNonEmpty(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4)
	var upcalls int
	var drained int
	pr.EpB.SetUpcall(unet.UpcallNonEmpty, false, func() {
		upcalls++
		// Consume all pending messages in a single upcall (§3.1).
		for {
			rd, ok := pr.EpB.PollRecv(nil)
			if !ok {
				break
			}
			drained++
			_ = rd
		}
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{byte(i)}})
		}
	})
	tb.Eng.Run()
	if drained != 3 {
		t.Fatalf("drained %d messages, want 3", drained)
	}
	if upcalls == 0 {
		t.Fatal("upcall never fired")
	}
}

func TestUpcallDisableDefers(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4)
	fired := 0
	pr.EpB.SetUpcall(unet.UpcallNonEmpty, false, func() { fired++ })
	pr.EpB.DisableUpcalls()
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{1}})
	})
	tb.Eng.Run()
	if fired != 0 {
		t.Fatal("upcall fired inside critical section")
	}
	pr.EpB.EnableUpcalls()
	tb.Eng.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after EnableUpcalls, want 1", fired)
	}
}

func TestUpcallSignalCostsThirtyMicroseconds(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4)
	var polled, signaled time.Duration
	pr.EpB.SetUpcall(unet.UpcallNonEmpty, false, func() { polled = tb.Eng.Now() })
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{1}})
	})
	tb.Eng.Run()

	tb2, pr2 := newPair(t, unet.EndpointConfig{}, 4)
	pr2.EpB.SetUpcall(unet.UpcallNonEmpty, true, func() { signaled = tb2.Eng.Now() })
	pr2.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr2.EpA.Send(p, unet.SendDesc{Channel: pr2.ChA, Inline: []byte{1}})
	})
	tb2.Eng.Run()

	diff := signaled - polled
	want := unet.SignalDelivery
	if diff != want {
		t.Fatalf("signal upcall added %v, want %v", diff, want)
	}
}

func TestUpcallAlmostFull(t *testing.T) {
	cfg := unet.EndpointConfig{RecvQueueCap: 4}
	tb, pr := newPair(t, cfg, 8)
	firedAt := -1
	pr.EpB.SetUpcall(unet.UpcallAlmostFull, false, func() {
		if firedAt < 0 {
			firedAt = int(pr.EpB.RecvPending())
		}
	})
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{byte(i)}})
		}
	})
	tb.Eng.Run()
	if firedAt != 3 {
		t.Fatalf("almost-full upcall at queue depth %d, want 3 (cap-1)", firedAt)
	}
}

func TestEndpointLimitEnforced(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 1})
	t.Cleanup(tb.Close)
	h := tb.Hosts[0]
	h.Kernel.SetLimits(unet.Limits{MaxEndpoints: 2, MaxSegmentBytes: 1 << 20, MaxQueueCap: 1024})
	owner := h.NewProcess("app")
	for i := 0; i < 2; i++ {
		if _, err := h.Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{}); err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
	if _, err := h.Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{}); !errors.Is(err, unet.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestSegmentLimitEnforced(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 1})
	t.Cleanup(tb.Close)
	h := tb.Hosts[0]
	owner := h.NewProcess("app")
	big := unet.EndpointConfig{SegmentSize: 64 << 20}
	if _, err := h.Kernel.CreateEndpoint(nil, owner, big); !errors.Is(err, unet.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	// Direct-access endpoints may span the whole address space (§3.6).
	big.DirectAccess = true
	if _, err := h.Kernel.CreateEndpoint(nil, owner, big); err != nil {
		t.Fatalf("direct-access large segment rejected: %v", err)
	}
}

func TestDestroyRequiresOwner(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 1})
	t.Cleanup(tb.Close)
	h := tb.Hosts[0]
	owner := h.NewProcess("alice")
	mallory := h.NewProcess("mallory")
	ep, err := h.Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Kernel.DestroyEndpoint(nil, mallory, ep); !errors.Is(err, unet.ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
	if err := h.Kernel.DestroyEndpoint(nil, owner, ep); err != nil {
		t.Fatal(err)
	}
	var sendErr error
	h.Spawn("tx", func(p *sim.Proc) { sendErr = ep.Send(p, unet.SendDesc{}) })
	tb.Eng.Run()
	if !errors.Is(sendErr, unet.ErrClosed) {
		t.Fatalf("send on destroyed endpoint: %v, want ErrClosed", sendErr)
	}
}

func TestIsolationBetweenPairs(t *testing.T) {
	// Two independent channels on a 4-host cluster: traffic on one must
	// never appear on endpoints of the other (§3.2 protection).
	tb := testbed.New(testbed.Config{Hosts: 4})
	t.Cleanup(tb.Close)
	pr1, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := tb.NewPair(2, 3, unet.EndpointConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr1.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			pr1.EpA.SendBlock(p, unet.SendDesc{Channel: pr1.ChA, Inline: []byte{byte(i)}})
		}
	})
	tb.Eng.Run()
	if got := pr1.EpB.Stats().Received; got != 5 {
		t.Fatalf("pair1 B received %d, want 5", got)
	}
	if got := pr2.EpB.Stats().Received; got != 0 {
		t.Fatalf("pair2 B received %d, want 0 (isolation violated)", got)
	}
	if got := pr2.EpA.Stats().Received; got != 0 {
		t.Fatalf("pair2 A received %d, want 0 (isolation violated)", got)
	}
}

func TestDirectAccessDeposit(t *testing.T) {
	cfg := unet.EndpointConfig{DirectAccess: true}
	tb, pr := newPair(t, cfg, 4)
	payload := bytes.Repeat([]byte{0x5A}, 2048)
	const dst = 100 << 10
	var rd unet.RecvDesc
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) { rd = pr.EpB.Recv(p) })
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Compose(p, pr.StageA, payload)
		err := pr.EpA.Send(p, unet.SendDesc{
			Channel: pr.ChA, Offset: pr.StageA, Length: len(payload),
			Direct: true, DstOffset: dst,
		})
		if err != nil {
			t.Error(err)
		}
	})
	tb.Eng.Run()
	if !rd.Direct || rd.DirectOffset != dst {
		t.Fatalf("rd = %+v, want direct deposit at %d", rd, dst)
	}
	if len(rd.Buffers) != 0 {
		t.Fatal("direct deposit consumed receive buffers")
	}
	got := make([]byte, len(payload))
	if err := pr.EpB.ReadBuf(nil, dst, got); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("data not deposited at destination offset (err %v)", err)
	}
}

func TestDirectAccessDeniedWithoutCapability(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 4) // B is base-level only
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Compose(p, pr.StageA, make([]byte, 256))
		pr.EpA.Send(p, unet.SendDesc{
			Channel: pr.ChA, Offset: pr.StageA, Length: 256,
			Direct: true, DstOffset: 0,
		})
	})
	tb.Eng.Run()
	if got := pr.EpB.Stats().Received; got != 0 {
		t.Fatalf("direct PDU delivered to non-direct endpoint (%d)", got)
	}
	if pr.EpB.Stats().DroppedNoBuffer == 0 {
		t.Fatal("denied direct PDU not accounted")
	}
}

func TestComposeReadBufBounds(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 0)
	defer tb.Eng.Shutdown()
	if err := pr.EpA.Compose(nil, pr.EpA.Config().SegmentSize-1, []byte{1, 2}); !errors.Is(err, unet.ErrBadOffset) {
		t.Fatalf("Compose out of range: %v", err)
	}
	if err := pr.EpA.ReadBuf(nil, -1, make([]byte, 1)); !errors.Is(err, unet.ErrBadOffset) {
		t.Fatalf("ReadBuf out of range: %v", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{}, 0)
	var ok bool
	var woke time.Duration
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) {
		_, ok = pr.EpB.RecvTimeout(p, 50*time.Microsecond)
		woke = p.Now()
	})
	tb.Eng.Run()
	if ok {
		t.Fatal("RecvTimeout reported a message on an idle endpoint")
	}
	if woke != 50*time.Microsecond {
		t.Fatalf("woke at %v, want 50µs", woke)
	}
}

func TestManagerDisconnectStopsTraffic(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	prA := tb.Hosts[0].NewProcess("a")
	prB := tb.Hosts[1].NewProcess("b")
	epA, _ := tb.Hosts[0].Kernel.CreateEndpoint(nil, prA, unet.EndpointConfig{})
	epB, _ := tb.Hosts[1].Kernel.CreateEndpoint(nil, prB, unet.EndpointConfig{})
	ch, err := tb.Manager.Connect(nil, epA, epB)
	if err != nil {
		t.Fatal(err)
	}
	tb.Manager.Disconnect(nil, ch)
	var sendErr error
	tb.Hosts[0].Spawn("tx", func(p *sim.Proc) {
		sendErr = epA.Send(p, unet.SendDesc{Channel: ch.ChanA, Inline: []byte{1}})
	})
	tb.Eng.Run()
	if !errors.Is(sendErr, unet.ErrNoChannel) {
		t.Fatalf("send after disconnect: %v, want ErrNoChannel", sendErr)
	}
}

func TestMTUEnforced(t *testing.T) {
	tb, pr := newPair(t, unet.EndpointConfig{SegmentSize: 1 << 20}, 0)
	defer tb.Eng.Shutdown()
	mtu := tb.Devices[0].MTU()
	if err := pr.EpA.Send(nil, unet.SendDesc{Channel: pr.ChA, Offset: 0, Length: mtu + 1}); !errors.Is(err, unet.ErrTooLong) {
		t.Fatalf("oversized send: %v, want ErrTooLong", err)
	}
}

func TestForeDeviceHasNoFastPath(t *testing.T) {
	nicp := nic.ForeParams()
	tb := testbed.New(testbed.Config{Hosts: 2, NIC: &nicp})
	t.Cleanup(tb.Close)
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var rd unet.RecvDesc
	pr.EpB.Host().Spawn("rx", func(p *sim.Proc) { rd = pr.EpB.Recv(p) })
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		pr.EpA.Compose(p, pr.StageA, []byte("tiny"))
		pr.EpA.Send(p, unet.SendDesc{Channel: pr.ChA, Offset: pr.StageA, Length: 4})
	})
	tb.Eng.Run()
	if rd.Inline != nil {
		t.Fatal("Fore firmware model delivered inline (fast path should be absent)")
	}
	if rd.Length != 4 || len(rd.Buffers) != 1 {
		t.Fatalf("rd = %+v", rd)
	}
}

func TestAlmostFullUpcallPreventsOverflow(t *testing.T) {
	// The almost-full condition exists so a process can drain before the
	// receive queue overflows (§3.1). A receiver that drains from the
	// upcall survives a burst that would otherwise drop.
	cfg := unet.EndpointConfig{RecvQueueCap: 8}
	tb, pr := newPair(t, cfg, 8)
	drained := 0
	pr.EpB.SetUpcall(unet.UpcallAlmostFull, false, func() {
		for {
			rd, ok := pr.EpB.PollRecv(nil)
			if !ok {
				break
			}
			pr.EpB.Release(nil, rd)
			drained++
		}
	})
	const n = 64
	pr.EpA.Host().Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := pr.EpA.SendBlock(p, unet.SendDesc{Channel: pr.ChA, Inline: []byte{byte(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	tb.Eng.Run()
	st := pr.EpB.Stats()
	if st.DroppedQueueFull != 0 {
		t.Fatalf("dropped %d despite almost-full upcall", st.DroppedQueueFull)
	}
	if drained+pr.EpB.RecvPending() != n {
		t.Fatalf("drained %d + pending %d != %d", drained, pr.EpB.RecvPending(), n)
	}
}

func TestMultipleEndpointsPerProcess(t *testing.T) {
	// One process may own several endpoints (§3.1: "creates one or more
	// endpoints"); traffic stays per-endpoint.
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	owner := tb.Hosts[0].NewProcess("multi")
	peerOwner := tb.Hosts[1].NewProcess("peer")
	var eps []*unet.Endpoint
	var chans []unet.ChannelID
	var peers []*unet.Endpoint
	for i := 0; i < 3; i++ {
		ep, err := tb.Hosts[0].Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pe, err := tb.Hosts[1].Kernel.CreateEndpoint(nil, peerOwner, unet.EndpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := tb.Manager.Connect(nil, ep, pe)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
		chans = append(chans, ch.ChanA)
		peers = append(peers, pe)
	}
	tb.Hosts[0].Spawn("tx", func(p *sim.Proc) {
		for i, ep := range eps {
			ep.Send(p, unet.SendDesc{Channel: chans[i], Inline: []byte{byte(10 + i)}})
		}
	})
	tb.Eng.Run()
	for i, pe := range peers {
		rd, ok := pe.PollRecv(nil)
		if !ok || rd.Inline[0] != byte(10+i) {
			t.Fatalf("peer %d: got %+v", i, rd)
		}
	}
}

func TestDeviceEndpointTableLimit(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 1})
	t.Cleanup(tb.Close)
	h := tb.Hosts[0]
	h.Kernel.SetLimits(unet.Limits{MaxEndpoints: 1000, MaxSegmentBytes: 1 << 20, MaxQueueCap: 1024})
	owner := h.NewProcess("greedy")
	max := h.Device().MaxEndpoints()
	for i := 0; i < max; i++ {
		if _, err := h.Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{}); err != nil {
			t.Fatalf("endpoint %d (device max %d): %v", i, max, err)
		}
	}
	if _, err := h.Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{}); err == nil {
		t.Fatal("device endpoint table exceeded")
	}
}

// connectedEndpoints creates one endpoint per listed host and returns them.
func connectedEndpoints(t *testing.T, tb *testbed.Testbed, hosts ...int) []*unet.Endpoint {
	t.Helper()
	var eps []*unet.Endpoint
	for _, h := range hosts {
		ep, err := tb.Hosts[h].Kernel.CreateEndpoint(nil, tb.Hosts[h].NewProcess("app"), unet.EndpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	return eps
}

func TestChannelVCIsAccessor(t *testing.T) {
	// VCIs are link-local: each side's pair names its own uplink (tx) and
	// downlink (rx), numbered from the first user label per link. The label
	// a sender transmits on need not be the one the receiver sees.
	tb := testbed.New(testbed.Config{Hosts: 3})
	t.Cleanup(tb.Close)
	eps := connectedEndpoints(t, tb, 0, 1, 2)
	ab, err := tb.Manager.Connect(nil, eps[0], eps[1])
	if err != nil {
		t.Fatal(err)
	}
	ac, err := tb.Manager.Connect(nil, eps[0], eps[2])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ep     *unet.Endpoint
		ch     unet.ChannelID
		tx, rx int
	}{
		{"A→B", eps[0], ab.ChanA, 32, 32},
		{"B→A", eps[1], ab.ChanB, 32, 32},
		{"A→C", eps[0], ac.ChanA, 33, 33}, // second circuit on A's links
		{"C→A", eps[2], ac.ChanB, 32, 32}, // first on C's: A sends 33, C sees 32
	} {
		tx, rx, ok := tc.ep.ChannelVCIs(tc.ch)
		if !ok || int(tx) != tc.tx || int(rx) != tc.rx {
			t.Errorf("%s: ChannelVCIs = %d/%d/%v, want %d/%d", tc.name, tx, rx, ok, tc.tx, tc.rx)
		}
	}
	if ab.AtoB != 32 || ab.BtoA != 32 || ac.AtoB != 33 || ac.BtoA != 32 {
		t.Errorf("Channel tx labels A→B %d, B→A %d, A→C %d, C→A %d; want 32 32 33 32", ab.AtoB, ab.BtoA, ac.AtoB, ac.BtoA)
	}
	if _, _, ok := eps[0].ChannelVCIs(99); ok {
		t.Fatal("bogus channel reported VCIs")
	}
}

func TestManagerReconnectReusesLabels(t *testing.T) {
	// Disconnect frees the circuit's labels on every link; the next
	// connect takes them again, lowest first, and nothing grows.
	tb := testbed.New(testbed.Config{Topology: topo.Clos2(2, 2, 1)})
	t.Cleanup(tb.Close)
	eps := connectedEndpoints(t, tb, 0, 3, 1)
	if _, err := tb.Manager.Connect(nil, eps[2], eps[1]); err != nil { // shares the trunks and host 3's links
		t.Fatal(err)
	}
	labels := func() [4]atm.VCI {
		ch, err := tb.Manager.Connect(nil, eps[0], eps[1])
		if err != nil {
			t.Fatal(err)
		}
		txA, rxA, _ := eps[0].ChannelVCIs(ch.ChanA)
		txB, rxB, _ := eps[1].ChannelVCIs(ch.ChanB)
		tb.Manager.Disconnect(nil, ch)
		return [4]atm.VCI{txA, rxA, txB, rxB}
	}
	first := labels()
	if want := [4]atm.VCI{32, 32, 33, 33}; first != want {
		t.Fatalf("labels %v, want %v", first, want)
	}
	if again := labels(); again != first {
		t.Fatalf("reconnect got labels %v, first connect %v", again, first)
	}
}

func TestConnectFailsOnExhaustedLink(t *testing.T) {
	// A link out of VCIs fails the connect with the link's name, and the
	// direction already provisioned is torn down again.
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	eps := connectedEndpoints(t, tb, 0, 1)
	for i := 0; i < 1<<16-32; i++ {
		if _, _, err := tb.Topo.Provision(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := tb.Manager.Connect(nil, eps[0], eps[1])
	if err == nil || err.Error() != "fabric: link atm.up1: no free VCI (65504 circuits)" {
		t.Fatalf("Connect on a full uplink: %v", err)
	}
	if tx, rx, err := tb.Topo.Provision(0, 1); err != nil || tx != 32 || rx != 32 {
		t.Fatalf("A→B circuit after failed connect: %d/%d, %v; want 32/32 (rolled back)", tx, rx, err)
	}
}

func TestProtectionUnderLabelSwapping(t *testing.T) {
	// §3.2 with link-local labels: a circuit's labels are valid only on the
	// ports it was provisioned through. A third host that sends B's rx
	// label, or A's tx label, from its own port has no route at its first
	// switch — on the single switch and across a Clos alike.
	for _, cfg := range []testbed.Config{{Hosts: 4}, {Topology: topo.Clos2(2, 2, 1)}} {
		tb := testbed.New(cfg)
		eps := connectedEndpoints(t, tb, 0, 3, 1)
		if _, err := tb.Manager.Connect(nil, eps[2], eps[1]); err != nil {
			t.Fatal(err)
		}
		ch, err := tb.Manager.Connect(nil, eps[0], eps[1])
		if err != nil {
			t.Fatal(err)
		}
		txA, _, _ := eps[0].ChannelVCIs(ch.ChanA)
		_, rxB, _ := eps[1].ChannelVCIs(ch.ChanB)
		if txA == rxB {
			t.Fatalf("A's tx label %d equals B's rx label; the test needs them apart", txA)
		}
		if _, err := eps[1].ProvideRecvBuffers(nil, 0, 4); err != nil {
			t.Fatal(err)
		}
		tb.Topo.Uplink(2).Send(atm.Cell{VCI: rxB, EOP: true})
		tb.Topo.Uplink(2).Send(atm.Cell{VCI: txA, EOP: true})
		tb.Eng.Run()
		var unknown uint64
		for _, sw := range tb.Topo.Switches {
			unknown += sw.UnknownVCICells()
		}
		if unknown != 2 {
			t.Errorf("UnknownVCICells = %d, want both forged cells", unknown)
		}
		for i, d := range tb.Devices {
			if got := d.Stats().CellsIn; got != 0 {
				t.Errorf("host %d's NI received %d cells; forged cells must die at the first switch", i, got)
			}
		}
		tb.Close()
	}
}

func TestPinnedMemoryBudget(t *testing.T) {
	// §4.2.4: concurrent applications are limited by pinnable memory and
	// DMA space; destroying an endpoint returns its budget.
	tb := testbed.New(testbed.Config{Hosts: 1})
	t.Cleanup(tb.Close)
	h := tb.Hosts[0]
	h.Kernel.SetLimits(unet.Limits{
		MaxEndpoints:    16,
		MaxSegmentBytes: 1 << 20,
		MaxQueueCap:     1024,
		MaxPinnedBytes:  600 << 10,
	})
	owner := h.NewProcess("apps")
	cfg := unet.EndpointConfig{SegmentSize: 256 << 10}
	ep1, err := h.Kernel.CreateEndpoint(nil, owner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Kernel.CreateEndpoint(nil, owner, cfg); err != nil {
		t.Fatal(err)
	}
	if got := h.Kernel.PinnedBytes(); got != 512<<10 {
		t.Fatalf("PinnedBytes = %d, want 512K", got)
	}
	// Third endpoint exceeds the 600K budget.
	if _, err := h.Kernel.CreateEndpoint(nil, owner, cfg); !errors.Is(err, unet.ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit (pinned budget)", err)
	}
	// Destroying one returns budget and the create succeeds.
	if err := h.Kernel.DestroyEndpoint(nil, owner, ep1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Kernel.CreateEndpoint(nil, owner, cfg); err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
}
