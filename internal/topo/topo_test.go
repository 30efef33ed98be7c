package topo

import (
	"strings"
	"testing"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
)

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"no hosts", &Spec{Name: "x", Switches: []SwitchSpec{{Name: "s"}}}, "no hosts"},
		{"no switches", &Spec{Name: "x", Hosts: []HostSpec{{Switch: "s"}}}, "no switches"},
		{"dup switch", &Spec{
			Switches: []SwitchSpec{{Name: "s"}, {Name: "s"}},
			Hosts:    []HostSpec{{Switch: "s"}},
		}, "duplicate switch"},
		{"unknown attach", &Spec{
			Switches: []SwitchSpec{{Name: "s"}},
			Hosts:    []HostSpec{{Switch: "nope"}},
		}, "unknown switch"},
		{"bad trunk", &Spec{
			Switches: []SwitchSpec{{Name: "s"}},
			Hosts:    []HostSpec{{Switch: "s"}},
			Trunks:   []TrunkSpec{{A: "s", B: "ghost"}},
		}, "not a switch"},
		{"self trunk", &Spec{
			Switches: []SwitchSpec{{Name: "s"}},
			Hosts:    []HostSpec{{Switch: "s"}},
			Trunks:   []TrunkSpec{{A: "s", B: "s"}},
		}, "to itself"},
		{"partitioned", &Spec{
			Switches: []SwitchSpec{{Name: "a"}, {Name: "b"}},
			Hosts:    []HostSpec{{Switch: "a"}, {Switch: "b"}},
		}, "unreachable"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	ok := Clos2(2, 2, 1)
	if err := ok.Validate(); err != nil {
		t.Errorf("Clos2(2,2,1).Validate() = %v", err)
	}
}

func TestGeneratorShapes(t *testing.T) {
	c2 := Clos2(4, 4, 2)
	if len(c2.Hosts) != 16 || len(c2.Switches) != 6 || len(c2.Trunks) != 8 {
		t.Fatalf("Clos2(4,4,2): %d hosts %d switches %d trunks", len(c2.Hosts), len(c2.Switches), len(c2.Trunks))
	}
	if c2.Stages() != 2 {
		t.Fatalf("Clos2 stages = %d", c2.Stages())
	}
	c3 := Clos3(2, 2, 2, 2)
	if len(c3.Hosts) != 8 || c3.Stages() != 3 {
		t.Fatalf("Clos3(2,2,2,2): %d hosts, %d stages", len(c3.Hosts), c3.Stages())
	}
	// 2 pods × (2 leaves + 1 agg) + 2 cores = 8 switches; trunks: 4 leaf–agg + 4 agg–core.
	if len(c3.Switches) != 8 || len(c3.Trunks) != 8 {
		t.Fatalf("Clos3(2,2,2,2): %d switches %d trunks", len(c3.Switches), len(c3.Trunks))
	}
	r := Ring(8, 2)
	if len(r.Hosts) != 16 || len(r.Trunks) != 8 {
		t.Fatalf("Ring(8,2): %d hosts %d trunks", len(r.Hosts), len(r.Trunks))
	}
	isle := Island(8, 2)
	// Ring trunks plus 4 antipodal chords.
	if len(isle.Trunks) != 12 {
		t.Fatalf("Island(8,2): %d trunks, want 12", len(isle.Trunks))
	}
	two := Ring(2, 1)
	if len(two.Trunks) != 1 {
		t.Fatalf("Ring(2,1): %d trunks, want 1 (no duplicate reverse trunk)", len(two.Trunks))
	}
	for _, spec := range []*Spec{c2, c3, r, isle, two} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Kind, err)
		}
	}
	if _, err := Generate("bogus", 2, 2, 1); err == nil {
		t.Fatalf("Generate(bogus) accepted")
	}
}

// sinkRec records delivered cells with their arrival times.
type sinkRec struct {
	cells []atm.Cell
	times []time.Duration
}

func (s *sinkRec) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	for i, c := range cells {
		s.cells = append(s.cells, c)
		s.times = append(s.times, first+time.Duration(i)*spacing)
	}
}

func TestMultiHopDelivery(t *testing.T) {
	e := sim.New(1)
	spec := Clos2(2, 1, 1) // h0 on leaf0, h1 on leaf1, one spine
	f := MustCompile(e, spec, nil)
	if got := f.Path(0, 1); len(got) != 3 {
		t.Fatalf("Path(0,1) = %v, want 3 switches (leaf0 spine0 leaf1)", got)
	}
	if err := f.Route(0, 40, 1); err != nil {
		t.Fatal(err)
	}
	rec := &sinkRec{}
	f.SetHostSink(1, rec)
	f.SetHostSink(0, &sinkRec{})

	f.Uplink(0).Send(atm.Cell{VCI: 40, EOP: true})
	end := e.Run()
	if len(rec.cells) != 1 || rec.cells[0].VCI != 40 {
		t.Fatalf("host 1 received %v", rec.cells)
	}
	// End-to-end latency: 3 serializations + uplink/downlink propagation +
	// 2 trunk propagations... lower-bounded by the sum of per-stage
	// charges; assert every stage charged virtual time rather than pinning
	// the exact constant.
	min := 3*fabric.DefaultCellTime + 3*fabric.DefaultSwitchLatency + 2*DefaultTrunkPropagation
	if rec.times[0] < min {
		t.Fatalf("3-hop delivery at %v, want >= %v (every stage must charge)", rec.times[0], min)
	}
	if end != rec.times[0] {
		t.Fatalf("engine ran past delivery: %v vs %v", end, rec.times[0])
	}

	// Protection stage by stage: the same VCI from the wrong source host
	// dies at the first switch with no route installed for (h1's port, 40).
	f.Uplink(1).Send(atm.Cell{VCI: 40, EOP: true})
	e.Run()
	if len(rec.cells) != 1 {
		t.Fatalf("wrong-port cell was delivered")
	}
	var unknown uint64
	for _, sw := range f.Switches {
		unknown += sw.UnknownVCICells()
	}
	if unknown != 1 {
		t.Fatalf("unknown VCI cells = %d, want 1", unknown)
	}
}

func TestRouteInstallsPerStageEntries(t *testing.T) {
	e := sim.New(1)
	spec := Clos3(2, 2, 1, 2) // inter-pod paths cross 5 switches
	f := MustCompile(e, spec, nil)
	from, to := 0, f.Size()-1
	path := f.Path(from, to)
	if len(path) != 5 {
		t.Fatalf("inter-pod path %v, want 5 switches (leaf agg core agg leaf)", path)
	}
	if err := f.Route(from, 50, to); err != nil {
		t.Fatal(err)
	}
	// Every switch on the path holds exactly the entries Route installed:
	// follow them hop by hop.
	sw, in := f.hostSw[from], f.hostPort[from]
	for range path {
		out, _, ok := f.Switches[sw].Lookup(in, 50)
		if !ok {
			t.Fatalf("switch %d has no entry for (port %d, vci 50)", sw, in)
		}
		if out < len(f.hostAt[sw]) {
			if sw != f.hostSw[to] || out != f.hostPort[to] {
				t.Fatalf("route ends at switch %d port %d, want host %d", sw, out, to)
			}
			break
		}
		k := out - len(f.hostAt[sw])
		sw, in = f.peerSw[sw][k], f.peerPort[sw][k]
	}
	f.Unroute(from, 50)
	for j := range f.Switches {
		for p := 0; p < f.Switches[j].Ports(); p++ {
			if _, _, ok := f.Switches[j].Lookup(p, 50); ok {
				t.Fatalf("switch %d port %d still routes vci 50 after Unroute", j, p)
			}
		}
	}
}

func TestForwardingSpreadsSpines(t *testing.T) {
	spec := Clos2(4, 1, 4)
	f := MustCompile(sim.New(1), spec, nil)
	// The rotated trunk declarations must elect different spines for
	// different destination racks — not all paths through spine0.
	spines := make(map[int]bool)
	for dst := 0; dst < 4; dst++ {
		for src := 0; src < 4; src++ {
			if src == dst {
				continue
			}
			p := f.Path(src, dst)
			spines[p[1]] = true
		}
	}
	if len(spines) < 2 {
		t.Fatalf("all inter-rack paths use one spine: %v", spines)
	}
}

// TestPlace: Compile puts each host, and the uplink it transmits on, on
// the engine hostEng names for it (the root for a nil entry or a nil
// slice), and every switch port and trunk on the root. It refuses a host
// engine list of the wrong length and any switch engine.
func TestPlace(t *testing.T) {
	for _, spec := range []func() *Spec{
		func() *Spec { return Star("atm", 5) },
		func() *Spec { return Clos2(4, 2, 2) },
		func() *Spec { return Island(6, 1) },
	} {
		for _, k := range []int{0, 2, 3} {
			root := sim.New(1)
			s := spec()
			var hostEng []*sim.Engine
			if k > 0 {
				shards := make([]*sim.Engine, k)
				for j := range shards {
					shards[j] = root.NewShard()
				}
				hostEng = make([]*sim.Engine, len(s.Hosts))
				for i := range hostEng {
					if i%(k+1) < k { // every (k+1)th host left nil: the root
						hostEng[i] = shards[i%(k+1)]
					}
				}
			}
			f := MustCompile(root, s, hostEng)
			for i := 0; i < f.Size(); i++ {
				want := root
				if hostEng != nil && hostEng[i] != nil {
					want = hostEng[i]
				}
				if f.HostEngine(i) != want {
					t.Errorf("%s, %d shards: host %d off the engine it was given", s.Kind, k, i)
				}
				if f.Uplink(i).Engine() != want {
					t.Errorf("%s, %d shards: host %d's uplink transmits off its host's engine", s.Kind, k, i)
				}
				if f.Downlink(i).Engine() != root {
					t.Errorf("%s, %d shards: the switch port toward host %d transmits off the root", s.Kind, k, i)
				}
			}
			for j := 0; j < f.TrunkCount(); j++ {
				if f.TrunkLink(j).Engine() != root {
					t.Errorf("%s, %d shards: trunk %d transmits off the root", s.Kind, k, j)
				}
			}
		}
		s := spec()
		if _, err := Compile(sim.New(1), s, make([]*sim.Engine, len(s.Hosts)+1), nil); err == nil {
			t.Errorf("%s: Compile took one host engine too many", s.Kind)
		}
		if _, err := Compile(sim.New(1), s, nil, make([]*sim.Engine, len(s.Switches))); err == nil {
			t.Errorf("%s: Compile placed switches off the root engine", s.Kind)
		}
	}
}

func TestShardedCompileDeliversIdentically(t *testing.T) {
	// The same storm of cells through a 2-shard compile must arrive with
	// the exact times the serial compile produced. Engines are laid out as
	// testbed.New does: host i on shard i mod k, the switches on the root.
	run := func(k int) []time.Duration {
		root := sim.New(7)
		spec := Clos2(2, 2, 2)
		var hostEng []*sim.Engine
		if k > 1 {
			shards := make([]*sim.Engine, k)
			for j := range shards {
				shards[j] = root.NewShard()
			}
			hostEng = make([]*sim.Engine, len(spec.Hosts))
			for i := range hostEng {
				hostEng[i] = shards[i%k]
			}
		}
		f := MustCompile(root, spec, hostEng)
		recs := make([]*sinkRec, f.Size())
		for i := range recs {
			recs[i] = &sinkRec{}
			f.SetHostSink(i, recs[i])
		}
		vci := atm.VCI(40)
		for a := 0; a < f.Size(); a++ {
			for b := 0; b < f.Size(); b++ {
				if a == b {
					continue
				}
				if err := f.Route(a, vci, b); err != nil {
					t.Fatal(err)
				}
				av, bv, v := a, b, vci
				f.HostEngine(a).At(0, func() {
					for c := 0; c < 8; c++ {
						f.Uplink(av).Send(atm.Cell{VCI: v, EOP: true, Payload: [48]byte{byte(av), byte(bv), byte(c)}})
					}
				})
				vci++
			}
		}
		root.Run()
		var all []time.Duration
		for _, r := range recs {
			all = append(all, r.times...)
		}
		return all
	}
	serial := run(1)
	sharded := run(2)
	if len(serial) == 0 {
		t.Fatal("no deliveries")
	}
	if len(serial) != len(sharded) {
		t.Fatalf("serial delivered %d cells, sharded %d", len(serial), len(sharded))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("delivery %d: serial %v, sharded %v", i, serial[i], sharded[i])
		}
	}
}
