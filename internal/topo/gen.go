package topo

import "fmt"

// Star generates the paper's own testbed (§4.2): one switch "sw" with a
// host on every port and no trunks — the one-node case of every shape
// below. Compiled under the name "atm" it is the cluster testbed.New
// builds when no topology is given.
func Star(name string, hosts int) *Spec {
	if hosts < 1 {
		panic(fmt.Sprintf("topo: Star(%q, %d) needs at least one host", name, hosts))
	}
	s := &Spec{Name: name, Kind: "star", Switches: []SwitchSpec{{Name: "sw", Stage: 0}}}
	s.Hosts = make([]HostSpec, hosts)
	for i := range s.Hosts {
		s.Hosts[i].Switch = "sw"
	}
	return s
}

// Clos2 generates a 2-stage Clos (leaf–spine) fabric: racks top-of-rack
// switches with perRack hosts each, and spine spine switches, every leaf
// trunked to every spine. Any leaf pair is two hops apart through any of
// the spine switches; routing picks the spine deterministically (declared
// trunk order), spreading rack pairs over spines so no single spine
// carries every inter-rack path.
func Clos2(racks, perRack, spine int) *Spec {
	if racks < 1 || perRack < 1 || spine < 1 {
		panic(fmt.Sprintf("topo: Clos2(%d, %d, %d) needs at least one rack, host and spine", racks, perRack, spine))
	}
	s := &Spec{Name: "clos2", Kind: "clos2"}
	for r := 0; r < racks; r++ {
		s.Switches = append(s.Switches, SwitchSpec{Name: fmt.Sprintf("leaf%d", r), Stage: 0})
	}
	for j := 0; j < spine; j++ {
		s.Switches = append(s.Switches, SwitchSpec{Name: fmt.Sprintf("spine%d", j), Stage: 1})
	}
	for r := 0; r < racks; r++ {
		for h := 0; h < perRack; h++ {
			s.Hosts = append(s.Hosts, HostSpec{Switch: fmt.Sprintf("leaf%d", r)})
		}
		// Leaf r's uplinks are declared spine-rotated so the first — and
		// thus BFS-preferred — spine differs per rack: rack pairs spread
		// over the spine layer instead of all electing spine0.
		for j := 0; j < spine; j++ {
			s.Trunks = append(s.Trunks, TrunkSpec{A: fmt.Sprintf("leaf%d", r), B: fmt.Sprintf("spine%d", (r+j)%spine)})
		}
	}
	return s
}

// Clos3 generates a 3-stage folded-Clos (fat-tree-style) fabric: pods
// pods, each with leafPerPod leaf switches of perRack hosts and one
// aggregation switch trunked to every leaf in the pod; core core switches
// trunk every pod's aggregation switch together. Intra-pod paths are two
// hops (leaf–agg–leaf), inter-pod paths four (leaf–agg–core–agg–leaf).
func Clos3(pods, leafPerPod, perRack, core int) *Spec {
	if pods < 1 || leafPerPod < 1 || perRack < 1 || core < 1 {
		panic(fmt.Sprintf("topo: Clos3(%d, %d, %d, %d) needs at least one pod, leaf, host and core", pods, leafPerPod, perRack, core))
	}
	s := &Spec{Name: "clos3", Kind: "clos3"}
	for p := 0; p < pods; p++ {
		for l := 0; l < leafPerPod; l++ {
			s.Switches = append(s.Switches, SwitchSpec{Name: fmt.Sprintf("p%dleaf%d", p, l), Stage: 0})
		}
		s.Switches = append(s.Switches, SwitchSpec{Name: fmt.Sprintf("p%dagg", p), Stage: 1})
	}
	for c := 0; c < core; c++ {
		s.Switches = append(s.Switches, SwitchSpec{Name: fmt.Sprintf("core%d", c), Stage: 2})
	}
	for p := 0; p < pods; p++ {
		for l := 0; l < leafPerPod; l++ {
			for h := 0; h < perRack; h++ {
				s.Hosts = append(s.Hosts, HostSpec{Switch: fmt.Sprintf("p%dleaf%d", p, l)})
			}
			s.Trunks = append(s.Trunks, TrunkSpec{A: fmt.Sprintf("p%dleaf%d", p, l), B: fmt.Sprintf("p%dagg", p)})
		}
		// Core uplinks rotated per pod, like Clos2's spine rotation.
		for c := 0; c < core; c++ {
			s.Trunks = append(s.Trunks, TrunkSpec{A: fmt.Sprintf("p%dagg", p), B: fmt.Sprintf("core%d", (p+c)%core)})
		}
	}
	return s
}

// Ring generates a ring of islands island switches with perIsland hosts
// each, every switch trunked to its successor. Paths take the shorter way
// around; the antipodal tie goes to the clockwise direction (declared
// trunk order).
func Ring(islands, perIsland int) *Spec {
	s := ringSpec(islands, perIsland, "ring")
	return s
}

// Island generates the netislands-style overlay fabric: a ring of island
// switches plus antipodal chord trunks that halve the worst-case hop
// count, the shape of a gossip overlay whose islands mostly talk to ring
// neighbors but occasionally cross the diameter. With fewer than four
// islands the chords degenerate and the plain ring is returned.
func Island(islands, perIsland int) *Spec {
	s := ringSpec(islands, perIsland, "island")
	if islands >= 4 {
		half := islands / 2
		for i := 0; i < islands/2; i++ {
			s.Trunks = append(s.Trunks, TrunkSpec{A: fmt.Sprintf("isle%d", i), B: fmt.Sprintf("isle%d", (i+half)%islands)})
		}
	}
	return s
}

func ringSpec(islands, perIsland int, kind string) *Spec {
	if islands < 1 || perIsland < 1 {
		panic(fmt.Sprintf("topo: %s(%d, %d) needs at least one island and host", kind, islands, perIsland))
	}
	s := &Spec{Name: kind, Kind: kind}
	for i := 0; i < islands; i++ {
		s.Switches = append(s.Switches, SwitchSpec{Name: fmt.Sprintf("isle%d", i), Stage: 0})
	}
	for i := 0; i < islands; i++ {
		for h := 0; h < perIsland; h++ {
			s.Hosts = append(s.Hosts, HostSpec{Switch: fmt.Sprintf("isle%d", i)})
		}
	}
	if islands > 1 {
		for i := 0; i < islands; i++ {
			if islands == 2 && i == 1 {
				break // both directions of a 2-ring are the same trunk
			}
			s.Trunks = append(s.Trunks, TrunkSpec{A: fmt.Sprintf("isle%d", i), B: fmt.Sprintf("isle%d", (i+1)%islands)})
		}
	}
	return s
}

// Generate builds the named topology shape: "clos2" (racks × perRack
// hosts, spine spines), "clos3" (racks pods of two leaves each, spine
// cores), "ring" and "island" (racks islands × perRack hosts; spine is
// ignored). It is the single entry point cmd/unetbench's -topo flag
// resolves through, so an unknown kind or a size below one is an error to
// report, not the panic the generators reserve for their callers' bugs.
func Generate(kind string, racks, perRack, spine int) (*Spec, error) {
	if racks < 1 || perRack < 1 {
		return nil, fmt.Errorf("topo: %d racks of %d hosts; need at least one of each", racks, perRack)
	}
	switch kind {
	case "clos2", "clos3":
		if spine < 1 {
			return nil, fmt.Errorf("topo: %s with %d spine switches; need at least one", kind, spine)
		}
		if kind == "clos2" {
			return Clos2(racks, perRack, spine), nil
		}
		leafPerPod := 2
		pods := (racks + leafPerPod - 1) / leafPerPod
		return Clos3(pods, leafPerPod, perRack, spine), nil
	case "ring":
		return Ring(racks, perRack), nil
	case "island":
		return Island(racks, perRack), nil
	}
	return nil, fmt.Errorf("topo: unknown topology kind %q (have clos2, clos3, ring, island)", kind)
}
