package experiments

import (
	"testing"
	"time"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
	"unet/internal/unet"
)

// These tests pin the steady-state zero-allocation property of the data
// path (DESIGN.md §10): once pools and rings have reached their high-water
// marks, moving a message end to end — endpoint send queue, NIC SAR,
// fabric, NIC reassembly, receive queue, application consume — allocates
// nothing. Each harness builds a persistent simulation whose driver
// process parks on a Cond between rounds; one kick runs one full round
// trip and returns with the engine quiescent, so testing.AllocsPerRun can
// measure exactly one round per iteration.

// kickCond is the static engine callback waking a parked driver process;
// with a pointer arg it schedules without allocating.
func kickCond(a any) { a.(*sim.Cond).Signal() }

// echoRig is a raw U-Net ping-pong fixture: a persistent echo process on
// host 1 and a kick-driven ping process on host 0.
type echoRig struct {
	tb   *testbed.Testbed
	kick sim.Cond
}

func newEchoRig(t testing.TB, size int) *echoRig {
	tb := testbed.New(testbed.Config{Hosts: 2})
	if tt, ok := t.(*testing.T); ok {
		tt.Cleanup(tb.Close)
	}
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	rig := &echoRig{tb: tb}
	tb.Hosts[1].Spawn("echo", func(p *sim.Proc) {
		for {
			rd := pr.EpB.Recv(p)
			pr.EpB.Release(p, rd)
			if err := pr.EpB.SendBlock(p, pr.EpB.DescAt(pr.ChB, pr.StageB, size)); err != nil {
				panic(err)
			}
		}
	})
	tb.Hosts[0].Spawn("ping", func(p *sim.Proc) {
		for {
			p.Wait(&rig.kick)
			if err := pr.EpA.SendBlock(p, pr.EpA.DescAt(pr.ChA, pr.StageA, size)); err != nil {
				panic(err)
			}
			rd := pr.EpA.Recv(p)
			pr.EpA.Release(p, rd)
		}
	})
	tb.Eng.Run() // both processes park: echo in Recv, ping on the kick
	return rig
}

// round runs one complete round trip and returns at quiescence.
func (r *echoRig) round() {
	r.tb.Eng.AtArg(r.tb.Eng.Now(), kickCond, &r.kick)
	r.tb.Eng.Run()
}

// steadyAllocs warms a rig up past its pool high-water marks, then
// measures allocations per round.
func steadyAllocs(warmup int, round func()) float64 {
	for i := 0; i < warmup; i++ {
		round()
	}
	return testing.AllocsPerRun(100, round)
}

func TestSteadyStateAllocsSingleCell(t *testing.T) {
	rig := newEchoRig(t, 32) // single-cell inline fast path
	if allocs := steadyAllocs(20, rig.round); allocs != 0 {
		t.Fatalf("single-cell round trip allocates %.1f objects/round in steady state, want 0", allocs)
	}
}

func TestSteadyStateAllocsBuffered(t *testing.T) {
	rig := newEchoRig(t, 2048) // multi-cell buffered receive path
	if allocs := steadyAllocs(20, rig.round); allocs != 0 {
		t.Fatalf("buffered round trip allocates %.1f objects/round in steady state, want 0", allocs)
	}
}

// uamRig drives a full UAM request/reply round trip per kick. One driver
// process plays both sides sequentially (the serial engine allows any
// process to service any endpoint), so the simulation quiesces between
// rounds with no free-running poll loops.
type uamRig struct {
	tb   *testbed.Testbed
	kick sim.Cond
}

var uamEchoPayload = []byte("steady state!") // ≤32 B: single-cell with header

func newUAMRig(t testing.TB) *uamRig {
	tb := testbed.New(testbed.Config{Hosts: 2})
	if tt, ok := t.(*testing.T); ok {
		tt.Cleanup(tb.Close)
	}
	uA, err := uam.New(tb.Hosts[0].NewProcess("amA"), 0, uam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	uB, err := uam.New(tb.Hosts[1].NewProcess("amB"), 1, uam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := uam.Connect(tb.Manager, uA, uB); err != nil {
		t.Fatal(err)
	}
	var done bool
	if err := uB.RegisterHandler(1, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		if err := u.Reply(p, 2, arg, data); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := uA.RegisterHandler(2, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	rig := &uamRig{tb: tb}
	tb.Hosts[0].Spawn("driver", func(p *sim.Proc) {
		for {
			p.Wait(&rig.kick)
			done = false
			if err := uA.Request(p, 1, 1, 7, uamEchoPayload); err != nil {
				panic(err)
			}
			uB.PollWait(p, time.Millisecond) // serve the request, send the reply
			for !done {
				uA.PollWait(p, time.Millisecond)
			}
		}
	})
	tb.Eng.Run()
	return rig
}

func (r *uamRig) round() {
	r.tb.Eng.AtArg(r.tb.Eng.Now(), kickCond, &r.kick)
	r.tb.Eng.Run()
}

func TestSteadyStateAllocsUAMRoundTrip(t *testing.T) {
	rig := newUAMRig(t)
	if allocs := steadyAllocs(20, rig.round); allocs != 0 {
		t.Fatalf("UAM round trip allocates %.1f objects/round in steady state, want 0", allocs)
	}
}

// BenchmarkEchoSingleCell is the regression bench for the single-cell
// fast-path delivery (formerly one payload copy + alloc per message).
func BenchmarkEchoSingleCell(b *testing.B) {
	rig := newEchoRig(b, 32)
	defer rig.tb.Close()
	rig.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.round()
	}
}

// BenchmarkEchoBuffered covers the multi-cell reassemble-and-scatter path.
func BenchmarkEchoBuffered(b *testing.B) {
	rig := newEchoRig(b, 2048)
	defer rig.tb.Close()
	rig.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.round()
	}
}

// BenchmarkUAMRoundTrip covers the reliable-stream request/reply path.
func BenchmarkUAMRoundTrip(b *testing.B) {
	rig := newUAMRig(b)
	defer rig.tb.Close()
	rig.round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.round()
	}
}
