// Package unet implements the U-Net user-level network interface
// architecture (paper §3): the paper's primary contribution.
//
// The architecture gives each process the illusion of owning the network
// interface. Its three building blocks are implemented here exactly as
// described:
//
//   - Endpoints are an application's handle into the network (§3.1). Each
//     endpoint owns a communication segment — a bounded region of memory
//     holding message data — and three message queues: a send queue of
//     descriptors for outgoing messages, a receive queue of descriptors for
//     arrived messages, and a free queue of buffers handed to the network
//     interface for arriving data.
//
//   - Communication channels (§3.2) bind an endpoint pair to the message
//     tag — here, an ATM transmit/receive VCI pair — that the network
//     interface multiplexes and demultiplexes on. Channels are created by
//     the kernel agent (Kernel, Manager) which performs authentication,
//     route set-up and tag registration; the data path never enters the
//     kernel.
//
//   - Protection (§3.2) follows from endpoints, segments and queues being
//     accessible only to the owning process, and from the NI tagging
//     outgoing messages with the originating endpoint's channel and
//     demultiplexing incoming messages to the correct destination endpoint
//     only.
//
// The package implements the base-level architecture (§3.4) including the
// single-cell descriptor optimization for small messages, the optional
// direct-access mode (§3.6) where senders name a deposit offset in the
// receiver's segment, and kernel-emulated endpoints (§3.5) multiplexed
// over one real endpoint.
//
// The buffer discipline of the base level — compose in the segment and
// push a descriptor; pop a descriptor, take the data out of its receive
// buffers, give the buffers back through the free queue — is the
// endpoint's to carry out, not each layer's to re-derive: Compose, Staging
// and DescAt are the send half, Gather and Release the receive half, and
// the layers above (uam, ip, the emulated endpoints, the experiment
// drivers) are written against those alone.
//
// Hardware independence: unet talks to the network through the Device
// interface; internal/nic provides the SBA-200 (custom i960 firmware,
// §4.2) and SBA-100 (§4.1) device models. Applications run as simulated
// processes (internal/sim) and every operation charges the calibrated CPU
// costs in NodeParams, so that latency and bandwidth measured against this
// package reproduce the paper's Figures 3-4 and Tables 1 and 3.
package unet
