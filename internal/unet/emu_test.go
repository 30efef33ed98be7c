package unet_test

import (
	"bytes"
	"testing"
	"time"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

// Kernel-emulated endpoint tests (§3.5): emulated endpoints look like real
// ones to the application but are multiplexed by the kernel over a single
// real endpoint per host, trading performance for NI resources.

func emuFixture(t *testing.T, hosts int) *testbed.Testbed {
	t.Helper()
	tb := testbed.New(testbed.Config{Hosts: hosts})
	t.Cleanup(tb.Close)
	for _, h := range tb.Hosts {
		if err := h.Kernel.EnableEmulation(nil); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestEmulatedRoundTrip(t *testing.T) {
	tb := emuFixture(t, 2)
	ea, err := tb.Hosts[0].Kernel.CreateEmuEndpoint(nil, tb.Hosts[0].NewProcess("a"))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := tb.Hosts[1].Kernel.CreateEmuEndpoint(nil, tb.Hosts[1].NewProcess("b"))
	if err != nil {
		t.Fatal(err)
	}
	chA, chB, err := unet.EmuConnect(nil, tb.Manager, ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		r := eb.Recv(p)
		got = r.Data
		eb.Send(p, chB, append([]byte("re: "), r.Data...))
	})
	var reply []byte
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := ea.Send(p, chA, []byte("ping")); err != nil {
			t.Error(err)
			return
		}
		reply = ea.Recv(p).Data
	})
	tb.Eng.Run()
	if !bytes.Equal(got, []byte("ping")) || !bytes.Equal(reply, []byte("re: ping")) {
		t.Fatalf("got %q, reply %q", got, reply)
	}
}

func TestEmulatedEndpointsShareOneRealEndpoint(t *testing.T) {
	// Many emulated endpoints must not consume NI endpoint slots: the
	// device still serves exactly one (kernel) endpoint per host.
	tb := emuFixture(t, 2)
	before := tb.Hosts[0].Kernel.Endpoints()
	owner := tb.Hosts[0].NewProcess("many")
	for i := 0; i < 50; i++ {
		if _, err := tb.Hosts[0].Kernel.CreateEmuEndpoint(nil, owner); err != nil {
			t.Fatalf("emulated endpoint %d: %v", i, err)
		}
	}
	if got := tb.Hosts[0].Kernel.Endpoints(); got != before {
		t.Fatalf("real endpoints grew from %d to %d", before, got)
	}
}

func TestEmulatedDemultiplexing(t *testing.T) {
	// Two emulated endpoints per host over the same kernel channel:
	// messages must reach the right one.
	tb := emuFixture(t, 2)
	mk := func(h int, name string) *unet.EmuEndpoint {
		ee, err := tb.Hosts[h].Kernel.CreateEmuEndpoint(nil, tb.Hosts[h].NewProcess(name))
		if err != nil {
			t.Fatal(err)
		}
		return ee
	}
	a1, a2 := mk(0, "a1"), mk(0, "a2")
	b1, b2 := mk(1, "b1"), mk(1, "b2")
	ch1a, _, err := unet.EmuConnect(nil, tb.Manager, a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	ch2a, _, err := unet.EmuConnect(nil, tb.Manager, a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	var got1, got2 []byte
	tb.Hosts[1].Spawn("b1", func(p *sim.Proc) { got1 = b1.Recv(p).Data })
	tb.Hosts[1].Spawn("b2", func(p *sim.Proc) { got2 = b2.Recv(p).Data })
	tb.Hosts[0].Spawn("a", func(p *sim.Proc) {
		a1.Send(p, ch1a, []byte("for b1"))
		a2.Send(p, ch2a, []byte("for b2"))
	})
	tb.Eng.Run()
	if string(got1) != "for b1" || string(got2) != "for b2" {
		t.Fatalf("demux failed: b1=%q b2=%q", got1, got2)
	}
}

func TestEmulatedSlowerThanReal(t *testing.T) {
	// §3.5: "the performance characteristics are quite different". An
	// emulated round trip pays four traps and extra copies.
	tb := emuFixture(t, 2)
	ea, _ := tb.Hosts[0].Kernel.CreateEmuEndpoint(nil, tb.Hosts[0].NewProcess("a"))
	eb, _ := tb.Hosts[1].Kernel.CreateEmuEndpoint(nil, tb.Hosts[1].NewProcess("b"))
	chA, chB, err := unet.EmuConnect(nil, tb.Manager, ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	var emuRTT time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		for i := 0; i < rounds+1; i++ {
			r := eb.Recv(p)
			eb.Send(p, chB, r.Data)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		var start time.Duration
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			ea.Send(p, chA, []byte("x"))
			ea.Recv(p)
		}
		emuRTT = (p.Now() - start) / rounds
	})
	tb.Eng.Run()
	// Real endpoints round-trip a small message in ~65 µs; emulation must
	// cost visibly more (≥ 4 × Syscall on top).
	minExpected := 65*time.Microsecond + 4*unet.Syscall
	if emuRTT < minExpected {
		t.Fatalf("emulated RTT %v suspiciously fast (< %v)", emuRTT, minExpected)
	}
}

func TestEmulatedOversizedRejected(t *testing.T) {
	tb := emuFixture(t, 2)
	ea, _ := tb.Hosts[0].Kernel.CreateEmuEndpoint(nil, tb.Hosts[0].NewProcess("a"))
	eb, _ := tb.Hosts[1].Kernel.CreateEmuEndpoint(nil, tb.Hosts[1].NewProcess("b"))
	chA, _, err := unet.EmuConnect(nil, tb.Manager, ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		sendErr = ea.Send(p, chA, make([]byte, 64<<10))
	})
	tb.Eng.Run()
	if sendErr == nil {
		t.Fatal("oversized emulated send accepted")
	}
}

func TestEmulationBeforeEnableFails(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 1})
	t.Cleanup(tb.Close)
	if _, err := tb.Hosts[0].Kernel.CreateEmuEndpoint(nil, tb.Hosts[0].NewProcess("a")); err == nil {
		t.Fatal("CreateEmuEndpoint succeeded without EnableEmulation")
	}
}
