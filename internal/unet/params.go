package unet

import "time"

// The host CPU cost model: the time a SPARCstation-20 (60 MHz SuperSPARC,
// SunOS 4.1.3) spends on each U-Net host-side operation. The values are
// calibrated against the paper's measurements; calibration tests assert the
// headline numbers they combine into.
const (
	// copyPerByte is the cost of moving one byte between application data
	// structures and the communication segment (~59 MB/s memcpy).
	// Calibration: the UAM block transfer slope of 0.2 µs/byte round trip
	// (§5.2) is the raw per-byte wire cost plus two of these copies each way.
	copyPerByte = 17 * time.Nanosecond

	// descriptorPush is the cost of pushing a descriptor onto an
	// NI-resident queue: a double-word store across the I/O bus (§4.2.2).
	descriptorPush = 800 * time.Nanosecond

	// pollCost is the cost of checking the (host-memory-resident) receive
	// queue once.
	pollCost = 300 * time.Nanosecond

	// FreePush is the cost of returning a buffer to the NI-resident free
	// queue.
	FreePush = 500 * time.Nanosecond

	// Syscall is the trap+return cost of entering the kernel, paid only on
	// the set-up path (endpoint and channel management) and by emulated
	// endpoints on every operation.
	Syscall = 15 * time.Microsecond

	// SignalDelivery is the cost of taking a UNIX signal as the upcall
	// mechanism. Calibration: "using a UNIX signal to indicate message
	// arrival instead of polling adds approximately another 30 µs on each
	// end" (§4.2.3).
	SignalDelivery = 30 * time.Microsecond
)

// CopyCost returns the CPU time to copy n bytes.
func CopyCost(n int) time.Duration { return time.Duration(n) * copyPerByte }
