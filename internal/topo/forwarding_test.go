package topo

import (
	"reflect"
	"strings"
	"testing"

	"unet/internal/sim"
)

// allPairsNext is the forwarding plan as the compiler used to build it: a
// complete breadth-first search from every destination switch, filling
// next[s][d], the output port at switch s toward destination switch d. It
// is the oracle the on-demand searches are compared against: they may stop
// early and resume in any order, but the next hop they report must be the
// one the full search finds.
func allPairsNext(f *Fabric) [][]int {
	ns := len(f.Switches)
	next := make([][]int, ns)
	for s := range next {
		next[s] = make([]int, ns)
		for d := range next[s] {
			next[s][d] = -1
		}
	}
	for d := 0; d < ns; d++ {
		seen := make([]bool, ns)
		seen[d] = true
		frontier := []int{d}
		for len(frontier) > 0 {
			cur := frontier[0]
			frontier = frontier[1:]
			for k, peer := range f.peerSw[cur] {
				if seen[peer] {
					continue
				}
				seen[peer] = true
				next[peer][d] = f.peerPort[cur][k]
				frontier = append(frontier, peer)
			}
		}
	}
	return next
}

// oraclePath walks the all-pairs plan the way Path walks the on-demand one.
func oraclePath(f *Fabric, next [][]int, from, to int) []int {
	sw := f.hostSw[from]
	path := []int{sw}
	for sw != f.hostSw[to] {
		out := next[sw][f.hostSw[to]]
		if out < 0 {
			return nil
		}
		sw = f.peerSw[sw][out-len(f.hostAt[sw])]
		path = append(path, sw)
	}
	return path
}

// TestOnDemandForwardingMatchesAllPairs compares Path for every host pair
// with the all-pairs oracle, querying the pairs in two different orders on
// two compiles of each spec — the order decides where each destination's
// search pauses and resumes, and must not decide any next hop.
func TestOnDemandForwardingMatchesAllPairs(t *testing.T) {
	for _, spec := range []func() *Spec{
		func() *Spec { return Clos2(6, 2, 3) },
		func() *Spec { return Clos3(3, 2, 2, 2) },
		func() *Spec { return Ring(17, 1) },
		func() *Spec { return Island(24, 2) }, // ring plus antipodal chords
	} {
		asc := MustCompile(sim.New(1), spec(), nil, nil)
		desc := MustCompile(sim.New(1), spec(), nil, nil)
		name := asc.Spec.Kind
		next := allPairsNext(asc)
		n := asc.Size()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := oraclePath(asc, next, a, b)
				if got := asc.Path(a, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s ascending: Path(%d, %d) = %v, all-pairs plan says %v", name, a, b, got, want)
				}
				// Far pairs first, destinations descending: each search runs
				// to the far side at once and later queries only read it.
				ra, rb := (a+n/2)%n, n-1-b
				want = oraclePath(asc, next, ra, rb)
				if got := desc.Path(ra, rb); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s descending: Path(%d, %d) = %v, all-pairs plan says %v", name, ra, rb, got, want)
				}
			}
		}
	}
}

// TestTrunkLinkIsDeclaredASide: TrunkLink(t) is the output link of trunk
// t's A switch on the port that trunk occupies, for every declared trunk.
func TestTrunkLinkIsDeclaredASide(t *testing.T) {
	f := MustCompile(sim.New(1), Island(8, 2), nil, nil)
	seen := map[string]bool{}
	for i, tr := range f.Spec.Trunks {
		l := f.TrunkLink(i)
		if !strings.HasPrefix(l.Name(), "island."+tr.A+".port") || seen[l.Name()] {
			t.Fatalf("trunk %d (%s—%s): link %s", i, tr.A, tr.B, l.Name())
		}
		seen[l.Name()] = true
		a, port := f.trunkA[i][0], f.trunkA[i][1]
		if k := port - len(f.hostAt[a]); f.Spec.Switches[f.peerSw[a][k]].Name != tr.B {
			t.Fatalf("trunk %d: A-side port %d of switch %d leads to switch %s", i, port, a, f.Spec.Switches[f.peerSw[a][k]].Name)
		}
	}
}
