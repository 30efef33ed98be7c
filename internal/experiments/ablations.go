package experiments

import (
	"fmt"
	"time"

	"unet/internal/ip/tcp"
	"unet/internal/nic"
	"unet/internal/sim"
	"unet/internal/stats"
	"unet/internal/testbed"
	"unet/internal/uam"
	"unet/internal/unet"
)

// Drivers for the ablation benchmarks (DESIGN.md §5): variations of one
// design choice at a time against the calibrated default.

// TCPBandwidthMSS is TCPBandwidth with an explicit maximum segment size
// (0 keeps the path's standard one).
func TCPBandwidthMSS(kind PathKind, window, mss, writeSize, total int) float64 {
	tb, ca, cb := ipPairSock(kind, window+(16<<10))
	defer tb.Close()
	params := tcpParamsFor(kind, window)
	if mss > 0 {
		params.MSS = mss
	}
	got, elapsed := runTCPTransfer(tb, tcp.New(ca, 5000, 80, params), tcp.New(cb, 80, 5000, params), writeSize, total)
	if elapsed <= 0 {
		return 0
	}
	return float64(got) / elapsed.Seconds() / 1e6
}

// runTCPTransfer is the shared bulk-transfer skeleton: a streams total
// bytes to b in writeSize writes. It returns the bytes that arrived and
// the time from the first write to the last arrival.
func runTCPTransfer(tb *testbed.Testbed, a, b *tcp.Conn, writeSize, total int) (got int, elapsed time.Duration) {
	var start, end time.Duration
	tb.Hosts[1].Spawn("srv", func(p *sim.Proc) {
		if err := b.Accept(p, time.Second); err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		deadline := p.Now() + 120*time.Second
		for got < total && p.Now() < deadline {
			n, err := b.Read(p, buf, 500*time.Millisecond)
			if err != nil {
				return
			}
			if n > 0 {
				got += n
				end = p.Now()
			}
		}
		for k := 0; k < 300; k++ {
			b.Poll(p)
			p.Sleep(time.Millisecond)
		}
	})
	tb.Hosts[0].Spawn("cli", func(p *sim.Proc) {
		if err := a.Dial(p, time.Second); err != nil {
			return
		}
		start = p.Now()
		buf := make([]byte, writeSize)
		for off := 0; off < total; off += writeSize {
			if err := a.Write(p, buf); err != nil {
				return
			}
		}
		a.Flush(p, 100*time.Second)
	})
	tb.Eng.Run()
	return got, end - start
}

// TCPShortTransferTime measures the elapsed time of a short one-way U-Net
// TCP transfer (64 KB) with and without delayed acknowledgments. With
// delayed acks the slow-start ramp stalls on the 200 ms ack timer — the
// §7.8 justification for disabling them: "the available send window is
// updated in the most timely manner possible".
func TCPShortTransferTime(delayed bool) time.Duration {
	tb, ca, cb := ipPair(PathUNet)
	defer tb.Close()
	params := tcpParamsFor(PathUNet, 0)
	params.DelayedAck = delayed
	const total = 64 << 10
	_, elapsed := runTCPTransfer(tb, tcp.New(ca, 5000, 80, params), tcp.New(cb, 80, 5000, params), total, total)
	return elapsed
}

// EmulatedEndpointRTT measures a ping-pong over kernel-emulated endpoints
// (§3.5): every operation traps into the kernel and crosses an extra copy,
// in contrast to the 65 µs of real endpoints.
func EmulatedEndpointRTT(size, rounds int) time.Duration {
	tb := testbed.New(testbed.Config{Hosts: 2})
	defer tb.Close()
	for _, h := range tb.Hosts {
		mustNoErr(h.Kernel.EnableEmulation(nil), "enable emulation")
	}
	ea, err := tb.Hosts[0].Kernel.CreateEmuEndpoint(nil, tb.Hosts[0].NewProcess("app"))
	mustNoErr(err, "emu endpoint")
	eb, err := tb.Hosts[1].Kernel.CreateEmuEndpoint(nil, tb.Hosts[1].NewProcess("app"))
	mustNoErr(err, "emu endpoint")
	chA, chB, err := unet.EmuConnect(nil, tb.Manager, ea, eb)
	mustNoErr(err, "emu connect")

	payload := make([]byte, size)
	var rtt time.Duration
	tb.Hosts[1].Spawn("echo", func(p *sim.Proc) {
		for i := 0; i < rounds+1; i++ {
			r := eb.Recv(p)
			eb.Send(p, chB, r.Data)
		}
	})
	tb.Hosts[0].Spawn("ping", func(p *sim.Proc) {
		var start time.Duration
		for i := 0; i < rounds+1; i++ {
			if i == 1 {
				start = p.Now()
			}
			if err := ea.Send(p, chA, payload); err != nil {
				panic(err)
			}
			ea.Recv(p)
		}
		rtt = (p.Now() - start) / time.Duration(rounds)
	})
	tb.Eng.Run()
	return rtt
}

// DirectAccessRTT compares base-level buffered delivery with direct-access
// deposits (§3.6) for size-byte messages, returning both round-trip times
// in µs.
func DirectAccessRTT(size, rounds int) (baseUS, directUS float64) {
	measure := func(direct bool) float64 {
		tb := testbed.New(testbed.Config{Hosts: 2})
		defer tb.Close()
		cfg := unet.EndpointConfig{DirectAccess: true}
		pr, err := tb.NewPair(0, 1, cfg, 16)
		mustNoErr(err, "pair")
		const dstOff = 200 << 10
		mkDesc := func(ch unet.ChannelID, stage int) unet.SendDesc {
			d := unet.SendDesc{Channel: ch, Offset: stage, Length: size}
			if direct {
				d.Direct = true
				d.DstOffset = dstOff
			}
			return d
		}
		// Gather models the application integrating the data: base-level
		// delivery needs a copy out of the receive buffers, while a
		// direct-access deposit already sits at its final offset (§3.6's
		// "true zero copy") and Gather finds nothing to copy or return.
		var rtt time.Duration
		pr.EpB.Host().Spawn("echo", func(p *sim.Proc) {
			var data []byte
			for i := 0; i < rounds+1; i++ {
				data = pr.EpB.Gather(p, pr.EpB.Recv(p), data)
				pr.EpB.SendBlock(p, mkDesc(pr.ChB, pr.StageB))
			}
		})
		pr.EpA.Host().Spawn("ping", func(p *sim.Proc) {
			var start time.Duration
			var data []byte
			for i := 0; i < rounds+1; i++ {
				if i == 1 {
					start = p.Now()
				}
				pr.EpA.SendBlock(p, mkDesc(pr.ChA, pr.StageA))
				data = pr.EpA.Gather(p, pr.EpA.Recv(p), data)
			}
			rtt = (p.Now() - start) / time.Duration(rounds)
		})
		tb.Eng.Run()
		return float64(rtt) / float64(time.Microsecond)
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
