package experiments

import (
	"fmt"
	"time"

	"unet/internal/faults"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/stats"
	"unet/internal/testbed"
	"unet/internal/uam"
	"unet/internal/unet"
)

// Drivers for the ablation benchmarks (DESIGN.md §5): variations of one
// design choice at a time against the calibrated default.

// TCPShortTransferTime measures the elapsed time of a short one-way U-Net
// TCP transfer (64 KB) with and without delayed acknowledgments. With
// delayed acks the slow-start ramp stalls on the 200 ms ack timer — the
// §7.8 justification for disabling them: "the available send window is
// updated in the most timely manner possible".
func TCPShortTransferTime(delayed bool) time.Duration {
	tb, ca, cb := ipPair(PathUNet, 0, nil)
	defer tb.Close()
	params := tcpParamsFor(PathUNet, 0)
	params.DelayedAck = delayed
	const total = 64 << 10
	f, err := tcpStream(tb, ca, cb, params, total, total)
	if err != nil {
		return 0
	}
	return f.Last - f.Start
}

// emuEnd is a Messenger over a kernel-emulated endpoint (§3.5). The
// emulation has no timed receive: Recv blocks whatever the timeout.
type emuEnd struct {
	testbed.Connectionless
	ee   *unet.EmuEndpoint
	ch   unet.EmuChannelID
	data []byte
}

func (m *emuEnd) Send(p *sim.Proc, n int) error { return m.ee.Send(p, m.ch, m.data[:n]) }

func (m *emuEnd) Recv(p *sim.Proc, _ time.Duration) (int, error) { return len(m.ee.Recv(p).Data), nil }

// emuPair connects a kernel-emulated endpoint on each of two hosts, over a
// fabric plan impairs, as the messengers of size-byte messages. The
// caller owns tb.Close.
func emuPair(plan *faults.Plan, size int) (tb *testbed.Testbed, a, b *emuEnd) {
	tb = testbed.New(testbed.Config{Hosts: 2, Faults: plan})
	ends := make([]*emuEnd, 2)
	for i, h := range tb.Hosts {
		mustNoErr(h.Kernel.EnableEmulation(nil), "enable emulation")
		ee, err := h.Kernel.CreateEmuEndpoint(nil, h.NewProcess("app"))
		mustNoErr(err, "emu endpoint")
		ends[i] = &emuEnd{ee: ee, data: make([]byte, size)}
	}
	var err error
	ends[0].ch, ends[1].ch, err = unet.EmuConnect(nil, tb.Manager, ends[0].ee, ends[1].ee)
	mustNoErr(err, "emu connect")
	return tb, ends[0], ends[1]
}

// EmulatedEndpointRTT measures a ping-pong over kernel-emulated endpoints
// (§3.5): every operation traps into the kernel and crosses an extra copy,
// in contrast to the 65 µs of real endpoints.
func EmulatedEndpointRTT(size, rounds int) time.Duration {
	tb, a, b := emuPair(nil, size)
	defer tb.Close()
	rtt, err := testbed.Echo(tb, a, b, size, rounds, -1)
	mustNoErr(err, "emulated echo")
	return rtt
}

// DirectAccessRTT compares base-level buffered delivery with direct-access
// deposits (§3.6) for size-byte messages, returning both round-trip times
// in µs. Both sides gather each message, modelling the application
// integrating the data: base-level delivery needs a copy out of the receive
// buffers, while a direct-access deposit already sits at its final offset
// (§3.6's "true zero copy") and Gather finds nothing to copy or return.
func DirectAccessRTT(size, rounds int) (baseUS, directUS float64) {
	measure := func(direct bool) float64 {
		tb := testbed.New(testbed.Config{Hosts: 2})
		defer tb.Close()
		pr, err := tb.NewPair(0, 1, unet.EndpointConfig{DirectAccess: true}, 16)
		mustNoErr(err, "pair")
		a, b := pr.Raw()
		for _, m := range []*testbed.Raw{a, b} {
			m.Gather = true
			if direct {
				m.DstOffset = 200 << 10
			}
		}
		rtt, err := testbed.Echo(tb, a, b, size, rounds, -1)
		mustNoErr(err, "direct-access echo")
		return stats.US(rtt)
	}
	return measure(false), measure(true)
}

// AblationTable regenerates the DESIGN.md §5 ablation summary as one text
// table.
func AblationTable(rounds int) *stats.Table {
	t := stats.NewTable("Ablations: one design choice at a time")
	t.Header("Ablation", "Default", "Ablated")

	fp := nic.SBA200Params()
	noFP := nic.SBA200Params()
	noFP.SingleCellMax = 0
	t.Row("single-cell fast path off (§4.2.2), 32B RTT µs",
		fmt.Sprintf("%.0f", stats.US(RawRTT(fp, 32, rounds))),
		fmt.Sprintf("%.0f", stats.US(RawRTT(noFP, 32, rounds))))

	base, direct := DirectAccessRTT(2048, rounds)
	t.Row("direct-access deposit (§3.6), 2KB RTT µs",
		fmt.Sprintf("%.0f", base), fmt.Sprintf("%.0f", direct))

	t.Row("kernel-emulated endpoints (§3.5), 32B RTT µs",
		fmt.Sprintf("%.0f", stats.US(RawRTT(fp, 32, rounds))),
		fmt.Sprintf("%.0f", stats.US(EmulatedEndpointRTT(32, rounds))))

	t.Row("UDP checksum (§7.6), 1KB RTT µs",
		fmt.Sprintf("%.0f", stats.US(UDPRTT(PathUNet, 1024, rounds))),
		fmt.Sprintf("%.0f", stats.US(UNetUDPNoChecksumRTT(1024, rounds))))

	t.Row("UAM window 8 vs 1 (§5.1.1), 4KB store MB/s",
		fmt.Sprintf("%.1f", UAMStoreBandwidth(uam.Config{Window: 8}, 4096, 100)),
		fmt.Sprintf("%.1f", UAMStoreBandwidth(uam.Config{Window: 1}, 4096, 100)))

	t.Row("TCP MSS 2048 vs 512 (§7.8), MB/s",
		fmt.Sprintf("%.1f", TCPBandwidth(PathUNet, 8<<10, 8192, 1<<20)),
		fmt.Sprintf("%.1f", TCPBandwidthMSS(PathUNet, 8<<10, 512, 8192, 1<<20)))

	t.Row("TCP delayed acks off vs on (§7.8), 64KB transfer µs",
		fmt.Sprintf("%.0f", stats.US(TCPShortTransferTime(false))),
		fmt.Sprintf("%.0f", stats.US(TCPShortTransferTime(true))))
	return t
}
