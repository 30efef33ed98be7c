package unet

import (
	"fmt"

	"unet/internal/atm"
	"unet/internal/sim"
)

// Host is one workstation: a kernel agent and (once a NIC model attaches) a
// network device, charging the SPARCstation-20 cost model of params.go.
// Application code runs on the host as simulated processes.
type Host struct {
	Name   string
	Eng    *sim.Engine
	Kernel *Kernel
	dev    Device
	nextID int
}

// NewHost creates a host running on engine e.
func NewHost(e *sim.Engine, name string) *Host {
	h := &Host{Name: name, Eng: e}
	h.Kernel = newKernel(h, DefaultLimits())
	return h
}

// SetDevice attaches the network interface; NIC models call this.
func (h *Host) SetDevice(d Device) { h.dev = d }

// Device returns the attached network interface (nil if none).
func (h *Host) Device() Device { return h.dev }

// NewProcess creates a protection domain (an unprivileged UNIX process in
// the paper's terms) on the host.
func (h *Host) NewProcess(name string) *Process {
	h.nextID++
	return &Process{host: h, name: name, id: h.nextID}
}

// Spawn starts a simulated thread of execution on this host.
func (h *Host) Spawn(name string, fn func(*sim.Proc)) *sim.Proc {
	return h.Eng.Spawn(h.Name+"/"+name, fn)
}

// Process is a protection domain. Endpoints are owned by exactly one
// process and the kernel validates ownership on management operations;
// on the data path the *Endpoint value itself is the unforgeable
// capability, as the paper's memory mappings are.
type Process struct {
	host *Host
	name string
	id   int
}

// Host returns the process's host.
func (pr *Process) Host() *Host { return pr.host }

func (pr *Process) String() string {
	return fmt.Sprintf("%s:%s#%d", pr.host.Name, pr.name, pr.id)
}

// Device is the hardware-dependent half of U-Net: the multiplexing /
// demultiplexing agent of Figure 1(b). NIC models (internal/nic) implement
// it; the unet kernel agent drives the management methods and endpoints
// kick the data path.
type Device interface {
	// AttachEndpoint makes the device service ep's queues. It may fail
	// when device resources (DMA space, on-board memory) are exhausted.
	AttachEndpoint(ep *Endpoint) error
	// DetachEndpoint stops servicing ep.
	DetachEndpoint(ep *Endpoint)
	// OpenChannel registers the (txVCI, rxVCI) message-tag pair for
	// channel ch of ep, enabling the device to mux outgoing messages onto
	// txVCI and demux arrivals on rxVCI to ep.
	OpenChannel(ep *Endpoint, ch ChannelID, tx, rx atm.VCI) error
	// CloseChannel removes the registration.
	CloseChannel(ep *Endpoint, ch ChannelID)
	// KickTx tells the device ep's send queue became non-empty. It models
	// the NI noticing the descriptor on its next poll.
	KickTx(ep *Endpoint)
	// SingleCellMax is the largest message the device accepts inline in a
	// descriptor (0 when the fast path is absent).
	SingleCellMax() int
	// MTU is the largest message the device will segment.
	MTU() int
	// MaxEndpoints bounds concurrently attached endpoints (on-board
	// memory, pinned pages and DMA space are finite — §4.2.4).
	MaxEndpoints() int
	// RecycleInline takes back the pooled Inline slab of a consumed
	// descriptor (DESIGN.md §10; Endpoint.Gather and Release call it).
	RecycleInline(buf []byte)
	// RecycleOffsets takes back its Buffers list; the offsets themselves
	// must already have gone back through the free queue with PushFree.
	RecycleOffsets(offs []int)
}
