package nic

import "time"

// Cell mirrors the shape of atm.Cell; costcharge matches cell parameters by
// named-type name.
type Cell struct{ payload [48]byte }

type proc struct{}

func (proc) Sleep(time.Duration) {}

// Dev is a minimal NIC-like device with a calibrated per-cell cost.
type Dev struct {
	perCellCost time.Duration
	now         time.Duration
}

func (d *Dev) Forward(c Cell) { // want `Forward moves cells but never charges a virtual-time cost`
	_ = c
}

// Send delegates to SendAt, which charges: transitive evidence across
// same-package calls counts.
func (d *Dev) Send(c Cell) time.Duration {
	return d.SendAt(c, d.now)
}

// SendAt charges by referencing the calibrated per-cell cost parameter.
func (d *Dev) SendAt(c Cell, at time.Duration) time.Duration {
	_ = c
	d.now = at + d.perCellCost
	return d.now
}

// Deliver charges by sleeping the processor.
func (d *Dev) Deliver(c Cell, p proc) {
	_ = c
	p.Sleep(d.perCellCost)
}

type engine struct{}

func (engine) SleepTo(time.Duration, func(any), any) bool { return true }

// Step charges the way an event handler does: by sleeping the engine to an
// instant. No cost parameter is named and no cursor kept.
func (d *Dev) Step(c Cell, e engine, at time.Duration) {
	_ = c
	if !e.SleepTo(at, nil, nil) {
		return
	}
}

// StepFree is the same handler without the sleep.
func (d *Dev) StepFree(c Cell, e engine) { // want `StepFree moves cells but never charges a virtual-time cost`
	_, _ = c, e
}

// Absorb charges through cursor arithmetic.
func (d *Dev) Absorb(cells []Cell) {
	cursor := d.now
	for range cells {
		cursor += time.Microsecond
	}
	d.now = cursor
}

// sink is unexported: not a public fast path.
func (d *Dev) sink(c Cell) { _ = c }

// Reset takes no cell: not a fast path.
func (d *Dev) Reset() { d.now = 0 }

// Intake is a deliberately free intake path, annotated with where the cost
// is charged instead.
//
//unetlint:allow costcharge FIFO intake only; the drain loop charges the per-cell cost
func (d *Dev) Intake(c Cell) { _ = c }
