package unet

import (
	"fmt"

	"unet/internal/sim"
)

// Limits bounds the communication resources the kernel will grant (§3:
// "managing limited communication resources without the aid of a kernel
// path"; §4.2.4: pinned memory, DMA space and NI memory are finite).
type Limits struct {
	// MaxEndpoints bounds endpoints per host (further bounded by the
	// device's own MaxEndpoints).
	MaxEndpoints int
	// MaxSegmentBytes bounds one endpoint's communication segment — the
	// base-level architecture's bounded-segment rule (§3.4). Direct-access
	// endpoints are exempt (§3.6 lets segments span the address space).
	MaxSegmentBytes int
	// MaxQueueCap bounds each message queue's capacity.
	MaxQueueCap int
	// MaxPinnedBytes bounds the host-wide total of pinned communication-
	// segment memory — §4.2.4's scalability concern: "the number of
	// distinct applications that can be run concurrently is ... limited by
	// the amount of memory that can be pinned down on the host [and] the
	// size of the DMA address space". Destroying an endpoint returns its
	// budget. Zero means 8× MaxSegmentBytes.
	MaxPinnedBytes int
}

// DefaultLimits mirrors the prototype's pinned-memory budget.
func DefaultLimits() Limits {
	return Limits{
		MaxEndpoints:    16,
		MaxSegmentBytes: 1 << 20,
		MaxQueueCap:     1024,
		MaxPinnedBytes:  8 << 20,
	}
}

// Kernel is the per-host kernel agent. It participates only in set-up and
// tear-down — endpoint creation, channel registration, resource limits —
// and is entirely absent from the send/receive path (Figure 1b).
type Kernel struct {
	host   *Host
	limits Limits
	eps    map[*Endpoint]struct{}
	pinned int // pinned segment bytes across live endpoints (§4.2.4)

	emu *emuState
}

func newKernel(h *Host, l Limits) *Kernel {
	return &Kernel{host: h, limits: l, eps: make(map[*Endpoint]struct{})}
}

// SetLimits replaces the kernel's resource limits.
func (k *Kernel) SetLimits(l Limits) { k.limits = l }

// Limits returns the active resource limits.
func (k *Kernel) Limits() Limits { return k.limits }

// Endpoints reports how many endpoints are currently attached.
func (k *Kernel) Endpoints() int { return len(k.eps) }

// PinnedBytes reports the pinned communication-segment memory in use.
func (k *Kernel) PinnedBytes() int { return k.pinned }

// CreateEndpoint allocates an endpoint for owner: it validates the
// configuration against resource limits, pins the communication segment
// and attaches it to the device. This is a system call (cost charged to p).
func (k *Kernel) CreateEndpoint(p *sim.Proc, owner *Process, cfg EndpointConfig) (*Endpoint, error) {
	p.Charge(k.host.Params.Syscall)
	if owner.host != k.host {
		return nil, fmt.Errorf("unet: process %v is not on host %s", owner, k.host.Name)
	}
	dev := k.host.dev
	if dev == nil {
		return nil, ErrNoDevice
	}
	cfg.fillDefaults()
	if len(k.eps) >= k.limits.MaxEndpoints || len(k.eps) >= dev.MaxEndpoints() {
		return nil, fmt.Errorf("%w: %d endpoints attached", ErrLimit, len(k.eps))
	}
	if !cfg.DirectAccess && cfg.SegmentSize > k.limits.MaxSegmentBytes {
		return nil, fmt.Errorf("%w: segment %d > %d", ErrLimit, cfg.SegmentSize, k.limits.MaxSegmentBytes)
	}
	if cfg.SendQueueCap > k.limits.MaxQueueCap || cfg.RecvQueueCap > k.limits.MaxQueueCap ||
		cfg.FreeQueueCap > k.limits.MaxQueueCap {
		return nil, fmt.Errorf("%w: queue capacity too large", ErrLimit)
	}
	// Direct-access segments are not pinned wholesale — they rely on the
	// NI's memory mapping (§3.6) — so only base-level segments consume the
	// pinned/DMA budget.
	if !cfg.DirectAccess {
		budget := k.limits.MaxPinnedBytes
		if budget <= 0 {
			budget = 8 * k.limits.MaxSegmentBytes
		}
		if k.pinned+cfg.SegmentSize > budget {
			return nil, fmt.Errorf("%w: %d of %d pinned bytes in use", ErrLimit, k.pinned, budget)
		}
	}
	ep := newEndpoint(owner, cfg)
	if err := dev.AttachEndpoint(ep); err != nil {
		return nil, err
	}
	k.eps[ep] = struct{}{}
	if !cfg.DirectAccess {
		k.pinned += cfg.SegmentSize
	}
	return ep, nil
}

// DestroyEndpoint tears an endpoint down. Only the owner may destroy it
// (§3.2 protection).
func (k *Kernel) DestroyEndpoint(p *sim.Proc, caller *Process, ep *Endpoint) error {
	p.Charge(k.host.Params.Syscall)
	if ep.owner != caller {
		return ErrNotOwner
	}
	if _, ok := k.eps[ep]; !ok {
		return ErrClosed
	}
	delete(k.eps, ep)
	if !ep.cfg.DirectAccess {
		k.pinned -= ep.cfg.SegmentSize
	}
	ep.closed = true
	k.host.dev.DetachEndpoint(ep)
	return nil
}
