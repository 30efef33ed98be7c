package machine_test

import (
	"testing"
	"time"

	"unet/internal/machine"
	"unet/internal/sim"
	"unet/internal/splitc"
)

// closedRTT is the model's small-message round-trip time in closed form,
// 2 × (OSend + Latency + ORecv): what Table 2 lists and the model must
// measure.
func closedRTT(p machine.Params) time.Duration { return 2 * (p.OSend + p.Latency + p.ORecv) }

// closedBandwidth is the model's asymptotic bandwidth in MB/s in closed form.
func closedBandwidth(p machine.Params) float64 { return 1.0 / p.GPerByte.Seconds() / 1e6 }

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.2f, want %.2f ± %.0f%%", name, got, want, tol*100)
	}
}

// Table 2 round-trip latencies: CM-5 12 µs, Meiko 25 µs.
func TestTable2RTTParams(t *testing.T) {
	if got := closedRTT(machine.CM5Params()); got != 12*time.Microsecond {
		t.Errorf("CM-5 RTT = %v, want 12µs", got)
	}
	if got := closedRTT(machine.MeikoParams()); got != 25*time.Microsecond {
		t.Errorf("Meiko RTT = %v, want 25µs", got)
	}
}

// Table 2 bandwidths: CM-5 10 MB/s, Meiko 39 MB/s.
func TestTable2Bandwidth(t *testing.T) {
	within(t, "CM-5 bandwidth", closedBandwidth(machine.CM5Params()), 10, 0.02)
	within(t, "Meiko bandwidth", closedBandwidth(machine.MeikoParams()), 39, 0.03)
}

// Measured RPC round trip on the model should match the parameter RTT.
func TestModelRPCMatchesRTT(t *testing.T) {
	for _, pm := range []machine.Params{machine.CM5Params(), machine.MeikoParams()} {
		e := sim.New(1)
		m := machine.New(e, pm, 2)
		m.Node(1).SetRequestHandler(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
			return arg + 1, nil
		})
		m.Node(0).SetRequestHandler(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
			return 0, nil
		})
		done := false
		var rtt time.Duration
		m.Node(1).Spawn("srv", func(p *sim.Proc) {
			for !done {
				m.Node(1).PollWait(p, time.Millisecond)
			}
		})
		m.Node(0).Spawn("cli", func(p *sim.Proc) {
			const rounds = 20
			// warm-up
			m.Node(0).RPC(p, 1, 0, nil)
			t0 := p.Now()
			for i := 0; i < rounds; i++ {
				if a, _ := m.Node(0).RPC(p, 1, uint32(i), nil); a != uint32(i)+1 {
					t.Errorf("rpc reply arg = %d, want %d", a, i+1)
				}
			}
			rtt = (p.Now() - t0) / rounds
			done = true
		})
		e.Run()
		e.Shutdown()
		within(t, pm.Name+" measured RTT", float64(rtt)/float64(time.Microsecond),
			float64(closedRTT(pm))/float64(time.Microsecond), 0.02)
	}
}

// Bulk transfers approach the parameter bandwidth.
func TestModelBulkBandwidth(t *testing.T) {
	pm := machine.CM5Params()
	e := sim.New(1)
	m := machine.New(e, pm, 2)
	got := 0
	var last time.Duration
	m.Node(1).SetBulkHandler(func(p *sim.Proc, src int, data []byte) {
		got += len(data)
		last = p.Now()
	})
	m.Node(1).SetRequestHandler(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) { return 0, nil })
	const count, size = 50, 16384
	m.Node(1).Spawn("srv", func(p *sim.Proc) {
		for got < count*size {
			m.Node(1).PollWait(p, time.Millisecond)
		}
	})
	m.Node(0).Spawn("cli", func(p *sim.Proc) {
		buf := make([]byte, size)
		for i := 0; i < count; i++ {
			m.Node(0).Bulk(p, 1, buf)
		}
	})
	e.Run()
	e.Shutdown()
	bw := float64(got) / last.Seconds() / 1e6
	// Sender and receiver each charge G per byte but overlap; the
	// bottleneck is one side ≈ 1/G.
	within(t, "CM-5 bulk bandwidth", bw, closedBandwidth(pm), 0.10)
}

// Ordering: messages between a pair are delivered in order.
func TestModelOrdering(t *testing.T) {
	e := sim.New(1)
	m := machine.New(e, machine.CM5Params(), 2)
	var got []uint32
	m.Node(1).SetRequestHandler(func(p *sim.Proc, src int, arg uint32, data []byte) (uint32, []byte) {
		got = append(got, arg)
		return 0, nil
	})
	m.Node(1).Spawn("srv", func(p *sim.Proc) {
		for len(got) < 20 {
			m.Node(1).PollWait(p, time.Millisecond)
		}
	})
	m.Node(0).Spawn("cli", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			m.Node(0).Send(p, 1, uint32(i), nil)
		}
		m.Node(0).Flush(p)
	})
	e.Run()
	e.Shutdown()
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

var _ splitc.Transport = (*machine.Node)(nil)
