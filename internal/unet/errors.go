package unet

import "errors"

// Errors returned by the U-Net API.
var (
	// ErrSendQueueFull reports back-pressure: the NI has not yet drained
	// the send queue (§3.1: "eventually exert back-pressure to the user
	// process when the queue becomes full").
	ErrSendQueueFull = errors.New("unet: send queue full")
	// ErrNoChannel reports a send on an unregistered channel identifier —
	// the protection check that prevents a process from injecting messages
	// with tags it does not own (§3.2).
	ErrNoChannel = errors.New("unet: channel not registered on endpoint")
	// ErrTooLong reports a message exceeding the device MTU.
	ErrTooLong = errors.New("unet: message exceeds device MTU")
	// ErrBadOffset reports a descriptor naming memory outside the
	// communication segment — enforced because segments are the protection
	// boundary for NI memory access (§3.4).
	ErrBadOffset = errors.New("unet: buffer outside communication segment")
	// ErrNotOwner reports an operation by a process that does not own the
	// endpoint (§3.2: endpoints, segments and queues are only accessible
	// by the owning process).
	ErrNotOwner = errors.New("unet: caller does not own endpoint")
	// ErrLimit reports kernel resource-limit exhaustion (§3: managing
	// limited communication resources).
	ErrLimit = errors.New("unet: kernel resource limit exceeded")
	// ErrClosed reports use of a destroyed endpoint.
	ErrClosed = errors.New("unet: endpoint closed")
	// ErrNoDevice reports an operation on a host with no attached network
	// interface.
	ErrNoDevice = errors.New("unet: host has no attached network interface")
)
