package fabric

import (
	"fmt"

	"unet/internal/atm"
)

// FirstUserVCI skips the labels ATM signalling conventions reserve on
// every link; circuit provisioning hands out labels from here up.
const FirstUserVCI atm.VCI = 32

// Labels is the VCI space of one link. An ATM VCI names a circuit on a
// single link and is rewritten at every switch, so each link numbers its
// circuits independently and reuses the lowest free label first: the space
// a link (and the demux table at its far end) spans is the number of
// circuits it carries, not the number the network has ever opened. The
// space belongs to the link's transmitting side — a switch holds one per
// output port, a fabric one per host uplink. The zero value is empty.
type Labels struct {
	used []bool
	low  int // no free user label below this
}

// Alloc takes the lowest free label. link names the link in the error
// returned when all of its labels carry circuits.
func (l *Labels) Alloc(link string) (atm.VCI, error) {
	for v := max(l.low, int(FirstUserVCI)); v < 1<<16; v++ {
		if v >= len(l.used) || !l.used[v] {
			l.Take(atm.VCI(v))
			l.low = v + 1
			return atm.VCI(v), nil
		}
	}
	return 0, fmt.Errorf("fabric: link %s: no free VCI (%d circuits)", link, 1<<16-int(FirstUserVCI))
}

// Take marks v used, whoever chose it: explicit same-label routes draw on
// the same space as provisioned circuits, so the two forms cannot collide.
func (l *Labels) Take(v atm.VCI) {
	if n := int(v) + 1 - len(l.used); n > 0 {
		l.used = append(l.used, make([]bool, n)...)
	}
	l.used[v] = true
}

// Free returns v to the space.
func (l *Labels) Free(v atm.VCI) {
	if int(v) < len(l.used) {
		l.used[v] = false
		l.low = min(l.low, int(v))
	}
}
