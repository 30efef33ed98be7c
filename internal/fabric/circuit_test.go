package fabric_test

import (
	"reflect"
	"strings"
	"testing"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
	"unet/internal/topo"
)

// circuitNet is a fabric under the circuit tests: the Network surface plus
// every switch behind it.
type circuitNet struct {
	name     string
	net      fabric.Network
	route    func(from int, vci atm.VCI, to int) error
	switches []*fabric.Switch
}

func circuitNets() []circuitNet {
	cl := topo.MustCompile(sim.New(1), topo.Star("cl", 4), nil, nil)
	c2 := topo.MustCompile(sim.New(1), topo.Clos2(4, 2, 2), nil, nil)
	c3 := topo.MustCompile(sim.New(1), topo.Clos3(2, 2, 2, 2), nil, nil)
	return []circuitNet{
		{"star", cl, cl.Route, cl.Switches},
		{"clos2", c2, c2.Route, c2.Switches},
		{"clos3", c3, c3.Route, c3.Switches},
	}
}

// tables returns every input port's table length and the number of
// installed entries over all switches.
func (n circuitNet) tables() (lens []int, entries int) {
	for _, sw := range n.switches {
		for p := 0; p < sw.Ports(); p++ {
			lens = append(lens, sw.TableLen(p))
			for v := 0; v < sw.TableLen(p); v++ {
				if _, _, ok := sw.Lookup(p, atm.VCI(v)); ok {
					entries++
				}
			}
		}
	}
	return lens, entries
}

// TestCircuitLabelsAreReused: connect → disconnect → connect gives the
// same labels, leaves no entry at any stage in between and every table at
// the length the first connect left it.
func TestCircuitLabelsAreReused(t *testing.T) {
	for _, n := range circuitNets() {
		last := n.net.Size() - 1
		// Background circuits sharing links with the one under test, so its
		// labels are not all the first of their space.
		for _, from := range []int{0, 1, 1} {
			if _, _, err := n.net.Provision(from, last); err != nil {
				t.Fatalf("%s: %v", n.name, err)
			}
		}
		_, idle := n.tables()
		tx, rx, err := n.net.Provision(0, last)
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		if tx != 33 || rx != 35 {
			t.Errorf("%s: circuit labels %d/%d, want 33/35 (second on host 0's uplink, fourth on host %d's downlink)", n.name, tx, rx, last)
		}
		lens, up := n.tables()
		if up <= idle {
			t.Fatalf("%s: Provision installed nothing", n.name)
		}
		n.net.Unroute(0, tx)
		if _, down := n.tables(); down != idle {
			t.Errorf("%s: %d entries after Unroute, %d before Provision", n.name, down, idle)
		}
		tx2, rx2, err := n.net.Provision(0, last)
		if err != nil || tx2 != tx || rx2 != rx {
			t.Errorf("%s: reconnect got %d/%d (%v), want %d/%d", n.name, tx2, rx2, err, tx, rx)
		}
		if lens2, again := n.tables(); !reflect.DeepEqual(lens2, lens) || again != up {
			t.Errorf("%s: reconnect changed the tables: lengths %v → %v, entries %d → %d", n.name, lens, lens2, up, again)
		}
	}
}

// TestExplicitRouteSharesLabelSpace: the same-label Route form marks its
// label used on every link of the path, and replaces a provisioned entry
// it lands on, giving that entry's outgoing label back.
func TestExplicitRouteSharesLabelSpace(t *testing.T) {
	for _, n := range circuitNets() {
		last := n.net.Size() - 1
		if err := n.route(0, 32, last); err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		if tx, rx, err := n.net.Provision(0, last); err != nil || tx != 33 || rx != 33 {
			t.Errorf("%s: circuit beside explicit route 32 got %d/%d (%v), want 33/33", n.name, tx, rx, err)
		}
		if tx, rx, err := n.net.Provision(1, last); err != nil || tx != 32 || rx != 34 {
			t.Errorf("%s: circuit from host 1 got %d/%d (%v), want 32/34", n.name, tx, rx, err)
		}
		// Route over the provisioned (host 0, 33): the circuit it replaces
		// gives label 33 on host last's downlink back, and the explicit
		// route takes it again on that very link.
		if err := n.route(0, 33, last); err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		if _, rx, err := n.net.Provision(1, last); err != nil || rx != 35 {
			t.Errorf("%s: after replacing route, rx %d (%v), want 35", n.name, rx, err)
		}
	}
}

// TestProvisionExhaustedLink: a link with no free label fails the circuit
// with an error naming the link, and the uplink label and the stages walked
// before it are given back.
func TestProvisionExhaustedLink(t *testing.T) {
	for _, n := range circuitNets() {
		last := n.net.Size() - 1
		for i := 0; i < 1<<16-int(fabric.FirstUserVCI); i++ {
			if _, _, err := n.net.Provision(1, last); err != nil {
				t.Fatalf("%s: circuit %d: %v", n.name, i, err)
			}
		}
		_, full := n.tables()
		// Host 2 sits on another uplink (and, in the Clos fabrics, another
		// leaf): its circuit toward last walks free links first, then meets
		// one of the links host 1 filled.
		_, _, err := n.net.Provision(2, last)
		if err == nil || !strings.HasPrefix(err.Error(), "fabric: link c") || !strings.HasSuffix(err.Error(), ": no free VCI (65504 circuits)") {
			t.Errorf("%s: err = %v, want a full link named", n.name, err)
		}
		if n.name == "star" && !strings.Contains(err.Error(), " "+n.net.Downlink(last).Name()+":") {
			t.Errorf("star: err = %v, want host %d's downlink %s named", err, last, n.net.Downlink(last).Name())
		}
		if _, after := n.tables(); after != full {
			t.Errorf("%s: failed Provision left %d entries behind", n.name, after-full)
		}
		n.net.Unroute(1, 40000)
		if tx, _, err := n.net.Provision(2, last); err != nil || tx != 32 {
			t.Errorf("%s: after freeing one circuit: tx %d, %v; want 32", n.name, tx, err)
		}
	}
}
