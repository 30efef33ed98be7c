package kernelpath_test

import (
	"testing"
	"time"

	"unet/internal/ip"
	"unet/internal/ip/udp"
	"unet/internal/kernelpath"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/testbed"
)

// atmPair builds two kernel conduits over a Fore-firmware ATM path.
func atmPair(t *testing.T) (*testbed.Testbed, *kernelpath.Conduit, *kernelpath.Conduit) {
	tb, ka, kb, _, _ := atmPairFull(t)
	return tb, ka, kb
}

func atmPairFull(t *testing.T) (*testbed.Testbed, *kernelpath.Conduit, *kernelpath.Conduit, *ip.UNetConduit, *ip.UNetConduit) {
	t.Helper()
	fore := nic.ForeParams()
	tb := testbed.New(testbed.Config{Hosts: 2, NIC: &fore})
	t.Cleanup(tb.Close)
	ia, ib, err := tb.NewIPConduitPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ka := kernelpath.New(tb.Hosts[0], ia, kernelpath.DefaultParams())
	kb := kernelpath.New(tb.Hosts[1], ib, kernelpath.DefaultParams())
	return tb, ka, kb, ia, ib
}

// ethPair builds two kernel conduits over a shared Ethernet segment.
func ethPair(t *testing.T) (*testbed.Testbed, *kernelpath.Conduit, *kernelpath.Conduit) {
	t.Helper()
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	en := kernelpath.NewEthernet(tb.Eng)
	pa := en.NewPort(1, 2)
	pb := en.NewPort(2, 1)
	ka := kernelpath.New(tb.Hosts[0], pa, kernelpath.DefaultParams())
	kb := kernelpath.New(tb.Hosts[1], pb, kernelpath.DefaultParams())
	return tb, ka, kb
}

func TestMbufChain(t *testing.T) {
	cases := []struct{ n, clusters, smalls int }{
		{0, 0, 0},
		{100, 0, 1},
		{112, 0, 1},
		{113, 0, 2},
		{511, 0, 5},
		{512, 1, 0},
		{1024, 1, 0},
		{1025, 1, 1}, // 1 byte remainder → one small mbuf
		{1535, 1, 5}, // 511-byte remainder → five small mbufs (expensive)
		{1536, 2, 0}, // 512-byte remainder → another cluster (cheap)
		{8192, 8, 0},
		{8300, 8, 1},
	}
	for _, c := range cases {
		cl, sm := kernelpath.MbufChain(c.n)
		if cl != c.clusters || sm != c.smalls {
			t.Errorf("MbufChain(%d) = (%d, %d), want (%d, %d)", c.n, cl, sm, c.clusters, c.smalls)
		}
	}
}

// udpRTT measures a kernel UDP echo round trip.
func udpRTT(t *testing.T, tb *testbed.Testbed, ka, kb ip.Conduit, size, rounds int) time.Duration {
	t.Helper()
	sa := udp.NewStack(ka, kernelpath.UDPParams())
	sb := udp.NewStack(kb, kernelpath.UDPParams())
	ska, _ := sa.Bind(1, 0)
	skb, _ := sb.Bind(2, 0)
	var rtt time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for i := 0; i < rounds+1; i++ {
			data, src, ok := skb.RecvFrom(p, 100*time.Millisecond)
			if !ok {
				t.Error("server timeout")
				return
			}
			skb.SendTo(p, src, data)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		var start time.Duration
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			ska.SendTo(p, 2, make([]byte, size))
			if _, _, ok := ska.RecvFrom(p, 100*time.Millisecond); !ok {
				t.Error("client timeout")
				return
			}
		}
		rtt = (p.Now() - start) / time.Duration(rounds)
	})
	tb.Eng.Run()
	return rtt
}

func TestKernelUDPRTTIsHundredsOfMicroseconds(t *testing.T) {
	tb, ka, kb := atmPair(t)
	rtt := udpRTT(t, tb, ka, kb, 8, 20)
	us := float64(rtt) / float64(time.Microsecond)
	// Figure 6/9: kernel round trips sit far above U-Net's 138 µs.
	if us < 400 || us > 1200 {
		t.Fatalf("kernel ATM UDP RTT = %.0f µs, want within 400-1200", us)
	}
}

func TestATMWorseThanEthernetForSmallMessages(t *testing.T) {
	// Figure 6: "for small messages the latency of both UDP and TCP
	// messages is larger using ATM than going over Ethernet".
	tbA, kaA, kbA := atmPair(t)
	atm := udpRTT(t, tbA, kaA, kbA, 8, 20)
	tbE, kaE, kbE := ethPair(t)
	eth := udpRTT(t, tbE, kaE, kbE, 8, 20)
	if atm <= eth {
		t.Fatalf("small messages: ATM RTT %v ≤ Ethernet RTT %v (Figure 6 inverted)", atm, eth)
	}
}

func TestATMBeatsEthernetForLargeMessages(t *testing.T) {
	tbA, kaA, kbA := atmPair(t)
	atm := udpRTT(t, tbA, kaA, kbA, 1400, 20)
	tbE, kaE, kbE := ethPair(t)
	eth := udpRTT(t, tbE, kaE, kbE, 1400, 20)
	if atm >= eth {
		t.Fatalf("1400B messages: ATM RTT %v ≥ Ethernet RTT %v (crossover missing)", atm, eth)
	}
}

func TestMbufSawtooth(t *testing.T) {
	// A 1500-byte packet needs five 112-byte mbufs for its 476-byte
	// remainder; a 1536-byte packet rounds to two clusters. Despite being
	// larger, the 1536-byte packet must be cheaper end to end (Figure 7's
	// sawtooth).
	tb1, ka1, kb1 := atmPair(t)
	jagged := udpRTT(t, tb1, ka1, kb1, 1500-28, 20) // payload; +28 headers = 1500 on wire
	tb2, ka2, kb2 := atmPair(t)
	smooth := udpRTT(t, tb2, ka2, kb2, 1536-28, 20)
	if jagged <= smooth {
		t.Fatalf("RTT(1500-byte packet) %v ≤ RTT(1536-byte packet) %v — no mbuf sawtooth", jagged, smooth)
	}
}

func TestKernelUDPBlastLosesAtReceiver(t *testing.T) {
	// Figure 7: the kernel's sender-perceived bandwidth exceeds what is
	// actually received. Losses are kernel buffering: the saturated
	// receiver CPU lets either the driver's receive buffers or the socket
	// buffer overflow (§7.3).
	tb, ka, kb, _, ib := atmPairFull(t)
	sa := udp.NewStack(ka, kernelpath.UDPParams())
	sb := udp.NewStack(kb, kernelpath.UDPParams())
	ska, _ := sa.Bind(1, 0)
	skb, _ := sb.Bind(2, 0)
	const count, size = 400, 1024
	received := 0
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for {
			if _, _, ok := skb.RecvFrom(p, 5*time.Millisecond); !ok {
				return
			}
			received++
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			ska.SendTo(p, 2, make([]byte, size))
		}
	})
	tb.Eng.Run()
	st := kb.Stats()
	if received >= count {
		t.Fatalf("no loss: received %d of %d", received, count)
	}
	epDrops := ib.Endpoint().Stats().DroppedNoBuffer + ib.Endpoint().Stats().DroppedQueueFull
	if st.SockBufDrops == 0 && ka.Stats().TxQueueDrops == 0 && epDrops == 0 {
		t.Fatalf("loss not attributed to kernel buffering: %+v / %+v", st, ka.Stats())
	}
}

func TestUNetUDPFarFasterThanKernel(t *testing.T) {
	// The headline of Figure 9: U-Net UDP at 138 µs vs kernel UDP in the
	// high hundreds.
	tbK, ka, kb := atmPair(t)
	kernel := udpRTT(t, tbK, ka, kb, 8, 20)

	tbU := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tbU.Close)
	ua, ub, err := tbU.NewIPConduitPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	unetRTT := func() time.Duration {
		sa := udp.NewStack(ua, udp.DefaultParams())
		sb := udp.NewStack(ub, udp.DefaultParams())
		ska, _ := sa.Bind(1, 0)
		skb, _ := sb.Bind(2, 0)
		var rtt time.Duration
		tbU.Hosts[1].Spawn("srv", func(p *sim.Proc) {
			for i := 0; i < 21; i++ {
				d, src, ok := skb.RecvFrom(p, 100*time.Millisecond)
				if !ok {
					return
				}
				skb.SendTo(p, src, d)
			}
		})
		tbU.Hosts[0].Spawn("cli", func(p *sim.Proc) {
			var start time.Duration
			for i := 0; i < 21; i++ {
				if i == 1 {
					start = p.Now()
				}
				ska.SendTo(p, 2, make([]byte, 8))
				if _, _, ok := ska.RecvFrom(p, 100*time.Millisecond); !ok {
					return
				}
			}
			rtt = (p.Now() - start) / 20
		})
		tbU.Eng.Run()
		return rtt
	}()
	if kernel < 3*unetRTT {
		t.Fatalf("kernel RTT %v not ≫ U-Net RTT %v", kernel, unetRTT)
	}
}

func TestTxQueueBoundsAndDriverDrains(t *testing.T) {
	tb, ka, kb := atmPair(t)
	_ = kb
	done := false
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := ka.Send(p, make([]byte, ip.HeaderSize+100)); err != nil {
				t.Error(err)
			}
		}
		done = true
	})
	tb.Eng.RunUntil(50 * time.Millisecond)
	if !done {
		t.Fatal("sender blocked — kernel send must not block the app")
	}
	if ka.Stats().Sent != 10 {
		t.Fatalf("Sent = %d, want 10", ka.Stats().Sent)
	}
}

func TestEthernetSharedMediumContention(t *testing.T) {
	// Two simultaneous conversations on one 10 Mbit/s segment must share
	// the wire: together they cannot exceed the medium's capacity.
	tb := testbed.New(testbed.Config{Hosts: 4})
	t.Cleanup(tb.Close)
	en := kernelpath.NewEthernet(tb.Eng)
	mk := func(h int, local, remote uint32) *kernelpath.Conduit {
		return kernelpath.New(tb.Hosts[h], en.NewPort(local, remote), kernelpath.DefaultParams())
	}
	kA, kB := mk(0, 1, 2), mk(1, 2, 1)
	kC, kD := mk(2, 3, 4), mk(3, 4, 3)

	const count, size = 40, 1400
	recv := func(k *kernelpath.Conduit, got *int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for {
				if _, ok := k.Recv(p, 100*time.Millisecond); !ok {
					return
				}
				*got++
			}
		}
	}
	send := func(k *kernelpath.Conduit) func(*sim.Proc) {
		return func(p *sim.Proc) {
			pkt := make([]byte, ip.HeaderSize+size)
			for i := 0; i < count; i++ {
				k.Send(p, pkt)
			}
		}
	}
	gotB, gotD := 0, 0
	var endB, endD time.Duration
	tb.Hosts[1].Spawn("rxB", func(p *sim.Proc) { recv(kB, &gotB)(p); endB = p.Now() })
	tb.Hosts[3].Spawn("rxD", func(p *sim.Proc) { recv(kD, &gotD)(p); endD = p.Now() })
	tb.Hosts[0].Spawn("txA", send(kA))
	tb.Hosts[2].Spawn("txC", send(kC))
	tb.Eng.Run()
	if gotB == 0 || gotD == 0 {
		t.Fatalf("a conversation was starved: %d / %d", gotB, gotD)
	}
	// Wire time for all frames: 2 × 40 × (1428+38) × 0.8 µs ≈ 94 ms. The
	// last delivery cannot beat the shared medium's serialization.
	last := endB
	if endD > last {
		last = endD
	}
	minWire := time.Duration(2*count*(size+28+38)) * 800 * time.Nanosecond
	// Subtract the receive-side timeout tail (100 ms) included in endX.
	if last-100*time.Millisecond < minWire-10*time.Millisecond {
		t.Fatalf("two flows finished in %v — faster than the shared 10 Mbit/s wire allows (%v)", last, minWire)
	}
}

// TestRecvNegativeTimeoutBlocks: ip.Conduit documents a negative timeout as
// "blocks indefinitely", and the kernel conduit must honour it like the
// conduits it wraps — a datagram that arrives 5 ms after Recv(p, -1) was
// entered is returned, not missed.
func TestRecvNegativeTimeoutBlocks(t *testing.T) {
	for _, path := range []struct {
		name string
		pair func(*testing.T) (*testbed.Testbed, *kernelpath.Conduit, *kernelpath.Conduit)
	}{{"atm", atmPair}, {"ethernet", ethPair}} {
		t.Run(path.name, func(t *testing.T) {
			tb, ka, kb := path.pair(t)
			var got []byte
			var ok bool
			var at time.Duration
			tb.Hosts[1].Spawn("rx", func(p *sim.Proc) {
				got, ok = kb.Recv(p, -1)
				at = p.Now()
			})
			tb.Hosts[0].Spawn("tx", func(p *sim.Proc) {
				p.Sleep(5 * time.Millisecond)
				if err := ka.Send(p, []byte("late datagram")); err != nil {
					t.Error(err)
				}
			})
			tb.Eng.RunUntil(time.Second)
			if !ok || string(got) != "late datagram" {
				t.Fatalf("Recv(p, -1) = %q, %v at %v; want the datagram sent at 5 ms", got, ok, at)
			}
			if at < 5*time.Millisecond {
				t.Fatalf("Recv returned at %v, before the datagram was sent", at)
			}
		})
	}
}
