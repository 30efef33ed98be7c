package nic

import (
	"time"

	"unet/internal/atm"
)

// Params is a NIC cost table: what differs between the three device
// models. The processing engine charges these times; everything else (cell
// serialization, switch latency) is charged by the fabric. Every value is
// calibrated against a paper measurement noted on the constructor that sets
// it.
type Params struct {
	// Name labels the device model.
	Name string

	// TxFixed is the per-message cost of the general send path: descriptor
	// processing and host-memory DMA set-up.
	TxFixed time.Duration
	// TxPerCell is the incremental processor cost per cell on the general
	// path (DMA bursts from host memory, FIFO pushes). When smaller than
	// the fiber's cell time, the link is the streaming bottleneck and the
	// fiber saturates (Figure 4).
	TxPerCell time.Duration

	// RxFixed is the per-message completion cost of the general receive
	// path: free-queue pop and descriptor DMA into the receive queue.
	RxFixed time.Duration
	// RxPerCell is the incremental cost per received cell (payload DMA).
	RxPerCell time.Duration

	// SingleCellMax is the largest message carried inline in descriptors;
	// 0 disables both fast paths (txSingleCell, rxSingleCell).
	SingleCellMax int
	// InFIFODepth is the input FIFO capacity in cells; overflow drops.
	InFIFODepth int
}

// What the three device models share.
const (
	// txSingleCell is the processor time to service an inline (single-cell
	// fast path) send descriptor: read the i960-resident descriptor, build
	// the cell, compute CRC in hardware, push to the output FIFO.
	txSingleCell = 13 * time.Microsecond
	// rxSingleCell is the receive fast path: a single-cell message is
	// transferred directly into the next receive-queue entry, skipping
	// buffer allocation (§4.2.2).
	rxSingleCell = 9700 * time.Nanosecond
	// outFIFOCells bounds how far the processor runs ahead of the fiber.
	outFIFOCells = 36
	// maxEndpoints is the endpoint table size (on-board memory, §4.2.4).
	maxEndpoints = 16
)

// SBA200Params returns the cost table of the SBA-200 running the paper's
// custom U-Net firmware (§4.2.2), the one model with the single-cell fast
// path, calibrated to reproduce §4.2.3:
//
//   - single-cell round trip 65 µs (32.5 µs one way, composed of the
//     descriptor push, txSingleCell, ~8.7 µs of wire, rxSingleCell and the
//     receiver's poll);
//   - 48-byte messages at 120 µs round trip (the multi-cell path's
//     buffer/DMA management is far costlier on the 25 MHz i960);
//   - ~6 µs of round-trip time per additional cell (wire-dominated);
//   - fiber saturation from ~800-byte packets (TxFixed amortizes below
//     the per-cell serialization slack).
func SBA200Params() Params {
	return Params{
		Name:          "sba200",
		TxFixed:       25 * time.Microsecond,
		TxPerCell:     1500 * time.Nanosecond,
		RxFixed:       19 * time.Microsecond,
		RxPerCell:     1500 * time.Nanosecond,
		SingleCellMax: atm.SingleCellMax,
		InFIFODepth:   292,
	}
}

// ForeParams returns the cost table of the SBA-200 running Fore's original
// firmware (§4.2.1): the kernel-firmware interface is patterned after BSD
// mbufs and System V streams bufs, and the i960 traverses those linked
// structures with DMA. Calibration: ~160 µs single-cell round trip and
// 13 MB/s with 4 Kbyte packets. No single-cell fast path.
func ForeParams() Params {
	return Params{
		Name:        "fore",
		TxFixed:     31 * time.Microsecond,
		TxPerCell:   3300 * time.Nanosecond, // above the 3.16 µs cell time: never saturates
		RxFixed:     36 * time.Microsecond,
		RxPerCell:   3300 * time.Nanosecond,
		InFIFODepth: 292,
	}
}

// SBA100Params returns the cost table of the SBA-100 (§4.1): no DMA, no
// on-board processor — the "device processor" here is the host CPU in fast
// kernel traps doing programmed I/O and software AAL5 CRC. Calibration
// (Table 1): 21 µs trap-level one-way across the switch, +7 µs AAL5 send
// and +5 µs AAL5 receive overhead per cell (33%/40% of which is the
// software CRC), 66 µs single-cell round trip, and a send-limited
// 6.8 MB/s at 1 Kbyte packets.
func SBA100Params() Params {
	return Params{
		Name:        "sba100",
		TxFixed:     5300 * time.Nanosecond, // trap entry + FIFO store latency
		TxPerCell:   6800 * time.Nanosecond, // AAL5 SAR + CRC + PIO per cell
		RxFixed:     6500 * time.Nanosecond, // trap exit + FIFO drain latency
		RxPerCell:   5 * time.Microsecond,   // AAL5 receive overhead per cell
		InFIFODepth: 292,
	}
}

// SBA100CRCShareTx and SBA100CRCShareRx are the fractions of the SBA-100
// AAL5 overheads spent computing the CRC in software (§4.1: "33% of the
// send overhead and 40% of the receive overhead ... is due to CRC
// computation"). Used by the Table 1 harness to print the cost breakup.
const (
	SBA100CRCShareTx = 0.33
	SBA100CRCShareRx = 0.40
)
