package experiments

import (
	"fmt"
	"math"

	"unet/internal/nic"
	"unet/internal/stats"
	"unet/internal/uam"
)

// sweep renders one figure: at(x) measures every series at one x (a NaN
// leaves that series without a point there), the xs run across the
// ParallelPoints pool, and the points are added in xs order.
func sweep(title, xlabel, ylabel string, xs []int, names []string, at func(x int) []float64) *stats.Figure {
	f := &stats.Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
	for _, name := range names {
		f.Series = append(f.Series, &stats.Series{Name: name})
	}
	ys := make([][]float64, len(xs))
	ParallelPoints(len(xs), func(i int) { ys[i] = at(xs[i]) })
	for i, x := range xs {
		for j, y := range ys[i] {
			if !math.IsNaN(y) {
				f.Series[j].Add(float64(x), y)
			}
		}
	}
	return f
}

// Fig3Sizes is the message-size sweep of Figure 3 (0-1 KB).
var Fig3Sizes = []int{4, 8, 16, 32, 40, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024}

// Fig3 reproduces Figure 3: U-Net round-trip times as a function of
// message size — Raw U-Net, UAM single-cell request/reply (≤ 32 B) and
// UAM block transfers.
func Fig3(rounds int) *stats.Figure {
	return sweep("Figure 3: round-trip times vs message size", "bytes", "µs", Fig3Sizes,
		[]string{"Raw U-Net", "UAM", "UAM xfer"},
		func(n int) []float64 {
			raw := stats.US(RawRTT(nic.SBA200Params(), n, rounds))
			am := stats.US(UAMPingPong(uam.Config{}, n, rounds))
			if n <= 32 {
				return []float64{raw, am, math.NaN()}
			}
			return []float64{raw, math.NaN(), am}
		})
}

// Fig4Sizes is the message-size sweep of Figure 4 (4 B-5 KB).
var Fig4Sizes = []int{
	4, 8, 16, 32, 40, 64, 128, 256, 512, 800, 1024, 1536, 2048, 3072, 4096,
	4160, 4164, 5120,
}

// Fig4 reproduces Figure 4: U-Net bandwidth as a function of message size
// — the AAL-5 fiber limit (with its cell-quantization sawtooth), raw
// U-Net, and UAM block store/get.
func Fig4(count int) *stats.Figure {
	return sweep("Figure 4: bandwidth vs message size", "bytes", "MB/s", Fig4Sizes,
		[]string{"AAL-5 limit", "Raw U-Net", "UAM store", "UAM get"},
		func(n int) []float64 {
			return []float64{
				AAL5Limit(n),
				RawBandwidth(nic.SBA200Params(), n, count).MBps(),
				UAMStoreBandwidth(uam.Config{}, n, count),
				UAMGetBandwidth(uam.Config{}, n, count/2),
			}
		})
}

// Fig5 reproduces Figure 5: the seven Split-C benchmarks on the CM-5, the
// U-Net ATM cluster and the Meiko CS-2, normalized to the CM-5, with the
// communication/computation split.
func Fig5(sc SplitCScale) *stats.Table {
	t := stats.NewTable("Figure 5: Split-C benchmarks (execution time normalized to CM-5)")
	t.Header("Benchmark", "CM-5", "U-Net ATM", "Meiko CS-2",
		"ATM comm/comp", "CM-5 comm/comp")
	pts := make([]struct{ cm5, atm, meiko BenchResult }, len(SplitCBenchNames))
	ParallelPoints(len(SplitCBenchNames), func(i int) {
		name := SplitCBenchNames[i]
		pts[i].cm5 = RunSplitCBench(MachineCM5, name, sc)
		pts[i].atm = RunSplitCBench(MachineUNetATM, name, sc)
		pts[i].meiko = RunSplitCBench(MachineMeiko, name, sc)
	})
	for i, name := range SplitCBenchNames {
		cm5, atm, meiko := pts[i].cm5, pts[i].atm, pts[i].meiko
		base := float64(cm5.Time)
		t.Row(name,
			"1.00",
			fmt.Sprintf("%.2f", float64(atm.Time)/base),
			fmt.Sprintf("%.2f", float64(meiko.Time)/base),
			fmt.Sprintf("%.0f%%/%.0f%%",
				100*float64(atm.Comm)/float64(atm.Time),
				100*float64(atm.Compute)/float64(atm.Time)),
			fmt.Sprintf("%.0f%%/%.0f%%",
				100*float64(cm5.Comm)/float64(cm5.Time),
				100*float64(cm5.Compute)/float64(cm5.Time)))
	}
	return t
}

// Fig6Sizes is the small-message sweep of Figure 6.
var Fig6Sizes = []int{8, 32, 64, 128, 256, 512, 1024, 1400}

// Fig6 reproduces Figure 6: kernel TCP and UDP round-trip latencies over
// ATM and over Ethernet — for small messages ATM is *worse*, the
// observation that motivates §7.
func Fig6(rounds int) *stats.Figure {
	return sweep("Figure 6: kernel TCP/UDP round-trip latencies, ATM vs Ethernet", "bytes", "µs", Fig6Sizes,
		[]string{"UDP ATM", "UDP Ethernet", "TCP ATM", "TCP Ethernet"},
		func(n int) []float64 {
			return []float64{
				stats.US(UDPRTT(PathKernelATM, n, rounds)),
				stats.US(UDPRTT(PathKernelEth, n, rounds)),
				stats.US(TCPRTT(PathKernelATM, n, rounds)),
				stats.US(TCPRTT(PathKernelEth, n, rounds)),
			}
		})
}

// Fig7Sizes is the datagram-size sweep of Figure 7.
var Fig7Sizes = []int{512, 1024, 1500, 1536, 2048, 2500, 3072, 4096, 6144, 8192}

// Fig7 reproduces Figure 7: UDP bandwidth as a function of message size —
// U-Net UDP (lossless, near the AAL-5 limit) against the kernel's
// sender-perceived and actually-received bandwidths, whose divergence is
// kernel buffering loss and whose jagged shape is the 1 KB mbuf sawtooth.
func Fig7(count int) *stats.Figure {
	return sweep("Figure 7: UDP bandwidth vs message size", "bytes", "MB/s", Fig7Sizes,
		[]string{"U-Net UDP", "kernel UDP (sender)", "kernel UDP (received)"},
		func(n int) []float64 {
			_, unet := UDPBandwidth(PathUNet, n, count)
			sent, recv := UDPBandwidth(PathKernelATM, n, count)
			return []float64{unet, sent, recv}
		})
}

// Fig8Writes is the application write-size sweep of Figure 8.
var Fig8Writes = []int{512, 1024, 2048, 4096, 8192, 16384}

// Fig8 reproduces Figure 8: TCP bandwidth as a function of the data
// generation by the application — U-Net TCP with its standard 8 KB window
// against the kernel TCP with a 64 KB window (and the kernel's default
// 52 KB socket buffer).
func Fig8(total int) *stats.Figure {
	return sweep("Figure 8: TCP bandwidth vs application write size", "bytes per write", "MB/s", Fig8Writes,
		[]string{"U-Net TCP (8K window)", "kernel TCP (64K window)", "kernel TCP (52K window)"},
		func(w int) []float64 {
			return []float64{
				TCPBandwidth(PathUNet, 8<<10, w, total),
				// The kernel path needs a longer stream: its slow-start stalls on
				// the 200 ms delayed-ack timer and only amortizes over megabytes.
				TCPBandwidth(PathKernelATM, 64<<10, w, 8*total),
				TCPBandwidth(PathKernelATM, 52<<10, w, 8*total),
			}
		})
}

// Fig9Sizes is the message-size sweep of Figure 9.
var Fig9Sizes = []int{4, 64, 256, 512, 1024, 2048, 4096}

// Fig9 reproduces Figure 9: UDP and TCP round-trip latencies as a
// function of message size — the U-Net implementations against the
// in-kernel ones over the same ATM hardware.
func Fig9(rounds int) *stats.Figure {
	return sweep("Figure 9: UDP and TCP round-trip latencies, U-Net vs kernel", "bytes", "µs", Fig9Sizes,
		[]string{"U-Net UDP", "U-Net TCP", "kernel UDP", "kernel TCP"},
		func(n int) []float64 {
			return []float64{
				stats.US(UDPRTT(PathUNet, n, rounds)),
				stats.US(TCPRTT(PathUNet, n, rounds)),
				stats.US(UDPRTT(PathKernelATM, n, rounds)),
				stats.US(TCPRTT(PathKernelATM, n, rounds)),
			}
		})
}
