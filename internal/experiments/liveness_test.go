package experiments

import (
	"fmt"
	"testing"
	"time"

	"unet/internal/faults"
	"unet/internal/ip"
	"unet/internal/kernelpath"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/uam"
)

// cutWire is a wire whose frames stop crossing for good at cut: the
// Ethernet segment's stand-in for a flap that never ends.
type cutWire struct {
	ip.Conduit
	cut time.Duration
}

func (w cutWire) Send(p *sim.Proc, pkt []byte) error {
	if p.Now() >= w.cut {
		return nil
	}
	return w.Conduit.Send(p, pkt)
}

// cutPlan takes every ATM link down for good at cut.
func cutPlan(cut time.Duration) *faults.Plan {
	return &faults.Plan{FlapPeriod: time.Hour, FlapDown: time.Hour, FlapOffset: cut}
}

// cutPair is ipPair with every link down for good from cut on.
func cutPair(kind PathKind, sockBuf int, cut time.Duration) (*testbed.Testbed, ip.Conduit, ip.Conduit) {
	if kind != PathKernelEth {
		return ipPair(kind, sockBuf, cutPlan(cut))
	}
	tb := testbed.New(testbed.Config{Hosts: 2})
	en := kernelpath.NewEthernet(tb.Eng)
	sockBuf = max(sockBuf, kernelpath.SockBufBytes)
	return tb, kernelpath.New(tb.Hosts[0], cutWire{en.NewPort(1, 2), cut}, sockBuf),
		kernelpath.New(tb.Hosts[1], cutWire{en.NewPort(2, 1), cut}, sockBuf)
}

// TestLivenessWhenTheLinkIsCut is the first rows of the liveness table
// (ROADMAP item 6(a)): with the link cut for good, before the first message
// or at a seeded instant within the run, every messenger's echo and stream
// fail — never a round trip, a zero or a partial stream without an error —
// and they do so by the row's ceiling of virtual time. The ceilings are the
// transports' own limits: a blocking receive with nothing coming ends the
// run; UAM gives a reply 100 ms and retries for about a quarter second; UDP
// waits a second for a reply; U-Net TCP declares the peer dead when its 12
// retries have backed off from 1 s to 128 s (895 s), and the kernel's 500 ms
// timer backs off past the writer's hour of patience.
func TestLivenessWhenTheLinkIsCut(t *testing.T) {
	const size, rounds, count = 1024, 20, 50
	type pair func(cut time.Duration, stream bool) (*testbed.Testbed, testbed.Messenger, testbed.Messenger)
	ipRow := func(kind PathKind, proto string) pair {
		return func(cut time.Duration, _ bool) (*testbed.Testbed, testbed.Messenger, testbed.Messenger) {
			if proto == "udp" {
				tb, ca, cb := cutPair(kind, 0, cut)
				a, b := udpPair(ca, cb, udpParamsFor(kind), size)
				return tb, a, b
			}
			tb, ca, cb := cutPair(kind, 64<<10, cut)
			a, b := tcpPair(ca, cb, tcpParamsFor(kind, 0), size)
			return tb, a, b
		}
	}
	rows := []struct {
		name                 string
		ceiling              time.Duration
		replyWait, streamGap time.Duration
		pair                 pair
	}{
		{"raw", time.Second, -1, -1, func(cut time.Duration, _ bool) (*testbed.Testbed, testbed.Messenger, testbed.Messenger) {
			tb, pr := rawPair(nil, cutPlan(cut))
			a, b := pr.Raw()
			return tb, a, b
		}},
		{"emulated", time.Second, -1, -1, func(cut time.Duration, _ bool) (*testbed.Testbed, testbed.Messenger, testbed.Messenger) {
			return emuPair(cutPlan(cut), size)
		}},
		{"uam", time.Second, uamReplyTimeout, uamPoll, func(cut time.Duration, stream bool) (*testbed.Testbed, testbed.Messenger, testbed.Messenger) {
			tb, a, b := uamPair(uam.Config{}, cutPlan(cut))
			op := uamRequest
			if stream {
				op = uamStore
			}
			return tb, newUAMNode(a, op, size, false), newUAMNode(b, op, size, false)
		}},
		{"udp/unet", 5 * time.Second, udpReplyTimeout, udpStreamGap, ipRow(PathUNet, "udp")},
		{"udp/kernel-atm", 5 * time.Second, udpReplyTimeout, udpStreamGap, ipRow(PathKernelATM, "udp")},
		{"udp/kernel-eth", 5 * time.Second, udpReplyTimeout, udpStreamGap, ipRow(PathKernelEth, "udp")},
		{"tcp/unet", 16 * time.Minute, tcpReplyTimeout, tcpStreamPoll, ipRow(PathUNet, "tcp")},
		{"tcp/kernel-atm", tcpPatience + time.Minute, tcpReplyTimeout, tcpStreamPoll, ipRow(PathKernelATM, "tcp")},
		{"tcp/kernel-eth", tcpPatience + time.Minute, tcpReplyTimeout, tcpStreamPoll, ipRow(PathKernelEth, "tcp")},
	}
	rng := faults.NewRand(FaultSeed, "liveness")
	for _, r := range rows {
		for _, cut := range []time.Duration{0, time.Duration(rng.Int63n(int64(time.Millisecond)))} {
			t.Run(fmt.Sprintf("%s/cut=%v", r.name, cut), func(t *testing.T) {
				tb, a, b := r.pair(cut, false)
				rtt, err := testbed.Echo(tb, a, b, size, rounds, r.replyWait)
				if end := tb.Eng.Now(); err == nil || rtt != 0 || end > r.ceiling {
					t.Errorf("echo: %v, error %v, at %v; want 0 and an error by %v", rtt, err, end, r.ceiling)
				}
				tb.Close()
				tb, a, b = r.pair(cut, true)
				f, err := testbed.Stream(tb, a, b, count, size, r.streamGap)
				if end := tb.Eng.Now(); err == nil || end > r.ceiling {
					t.Errorf("stream: %d of %d delivered, error %v, at %v; want an error by %v", f.Delivered, count, err, end, r.ceiling)
				}
				tb.Close()
			})
		}
	}
}
