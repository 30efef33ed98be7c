package unet

import "time"

// NodeParams is the host CPU cost model: the time a SPARCstation-20-class
// workstation spends on each U-Net host-side operation. The values are
// calibrated against the paper's measurements; calibration tests assert the
// headline numbers they combine into.
type NodeParams struct {
	// CopyPerByte is the cost of moving one byte between application data
	// structures and the communication segment. Calibration: the UAM block
	// transfer slope of 0.2 µs/byte round trip (§5.2) is the raw per-byte
	// wire cost plus two of these copies each way.
	CopyPerByte time.Duration

	// DescriptorPush is the cost of pushing a descriptor onto an
	// NI-resident queue: a double-word store across the I/O bus (§4.2.2).
	DescriptorPush time.Duration

	// Poll is the cost of checking the (host-memory-resident) receive
	// queue once.
	Poll time.Duration

	// FreePush is the cost of returning a buffer to the NI-resident free
	// queue.
	FreePush time.Duration

	// Syscall is the trap+return cost of entering the kernel, paid only on
	// the set-up path (endpoint and channel management) and by emulated
	// endpoints on every operation.
	Syscall time.Duration

	// SignalDelivery is the cost of taking a UNIX signal as the upcall
	// mechanism. Calibration: "using a UNIX signal to indicate message
	// arrival instead of polling adds approximately another 30 µs on each
	// end" (§4.2.3).
	SignalDelivery time.Duration

	// SelectWake is the scheduler cost of unblocking from a select-style
	// blocking receive.
	SelectWake time.Duration
}

// DefaultNodeParams returns the SPARCstation-20 (60 MHz SuperSPARC,
// SunOS 4.1.3) cost model used throughout the paper's measurements.
func DefaultNodeParams() NodeParams {
	return NodeParams{
		CopyPerByte:    17 * time.Nanosecond, // ~59 MB/s memcpy
		DescriptorPush: 800 * time.Nanosecond,
		Poll:           300 * time.Nanosecond,
		FreePush:       500 * time.Nanosecond,
		Syscall:        15 * time.Microsecond,
		SignalDelivery: 30 * time.Microsecond, // §4.2.3
		SelectWake:     5 * time.Microsecond,
	}
}

// CopyCost returns the CPU time to copy n bytes.
func (p *NodeParams) CopyCost(n int) time.Duration {
	return time.Duration(n) * p.CopyPerByte
}
