package fabric

import (
	"fmt"

	"unet/internal/atm"
)

// FirstUserVCI skips the labels ATM signalling conventions reserve on
// every link; circuit provisioning hands out labels from here up.
const FirstUserVCI atm.VCI = 32

// LabelTable is a table indexed by VCI that spans only the labels in use,
// dense from a base label up: no rows for the reserved labels below
// FirstUserVCI unless one is put. The zero value is empty.
type LabelTable[T any] struct {
	rows []T
	base atm.VCI
}

// At returns v's row, or nil when v lies outside the span.
func (t LabelTable[T]) At(v atm.VCI) *T {
	if i := uint(v) - uint(t.base); i < uint(len(t.rows)) {
		return &t.rows[i]
	}
	return nil
}

// Get returns v's row, or the zero row — absent — outside the span.
func (t LabelTable[T]) Get(v atm.VCI) (row T) {
	if i := uint(v) - uint(t.base); i < uint(len(t.rows)) {
		row = t.rows[i]
	}
	return row
}

// Put returns v's row, growing the span to cover v: the top by append, the
// base (a label below it is an explicit route's, at set-up) down by at
// least the span's length, or to v below FirstUserVCI, so either end grows
// in amortised O(1) copies a row. A row pointer lasts until the next Put.
func (t *LabelTable[T]) Put(v atm.VCI) *T {
	if len(t.rows) == 0 {
		t.base = v
	} else if v < t.base {
		lo := max(int(min(v, FirstUserVCI)), int(t.base)-max(int(t.base-v), len(t.rows)))
		t.rows = append(make([]T, int(t.base)-lo, int(t.base)-lo+cap(t.rows)), t.rows...)
		t.base = atm.VCI(lo)
	}
	if n := int(v-t.base) + 1 - len(t.rows); n > 0 {
		t.rows = append(t.rows, make([]T, n)...)
	}
	return &t.rows[v-t.base]
}

// Base is the label of Rows()[0].
func (t LabelTable[T]) Base() atm.VCI { return t.base }

// Rows is the span, dense from Base.
func (t LabelTable[T]) Rows() []T { return t.rows }

// Labels is the VCI space of one link. An ATM VCI names a circuit on a
// single link and is rewritten at every switch, so each link numbers its
// circuits independently and reuses the lowest free label first from
// FirstUserVCI: the space a link (and the table at its far end) spans is
// the circuits it carries, not the number the network has ever opened nor
// the reserved labels below them. The space belongs to the link's
// transmitting side — a switch holds one per output port, a fabric one per
// host uplink. The zero value is empty.
type Labels struct {
	used LabelTable[bool]
	low  int // no free user label below this
}

// Alloc takes the lowest free label. link names the link in the error
// returned when all of its labels carry circuits.
func (l *Labels) Alloc(link string) (atm.VCI, error) {
	for v := max(l.low, int(FirstUserVCI)); v < 1<<16; v++ {
		if !l.used.Get(atm.VCI(v)) {
			l.Take(atm.VCI(v))
			l.low = v + 1
			return atm.VCI(v), nil
		}
	}
	return 0, fmt.Errorf("fabric: link %s: no free VCI (%d circuits)", link, 1<<16-int(FirstUserVCI))
}

// Take marks v used, whoever chose it: explicit same-label routes draw on
// the same space as provisioned circuits, so the two forms cannot collide.
func (l *Labels) Take(v atm.VCI) { *l.used.Put(v) = true }

// Free returns v to the space.
func (l *Labels) Free(v atm.VCI) {
	if u := l.used.At(v); u != nil {
		*u = false
		l.low = min(l.low, int(v))
	}
}
