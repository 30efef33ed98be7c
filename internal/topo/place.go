package topo

// Place computes the topology-aware shard assignment for at most k shards:
// hostShard[i] and swShard[j] are shard indices in [0, shards), or -1 for
// the root engine, and shards is how many engines the layout uses — every
// one of them holds a host. The rule is locality-first — every stage-0
// (top-of-rack) switch lands on the same shard as all of its hosts,
// assigned in contiguous declared-order blocks, while stage>0 switches run
// on the root engine. Host↔ToR links then stay shard-local (dense traffic,
// no synchronization), and only the sparse trunk edges cross shards — edges
// whose DefaultTrunkPropagation-wide latency becomes the pair lookahead
// that keeps the conservative windows wide. A shard can hold several racks
// but never a fraction of one, so shards is capped at the number of racks.
//
// A one-switch spec (Star) has no rack boundary to cut along: there the
// hosts are what run in parallel, host i on shard i mod shards with shards
// capped at the host count, and the switch forwards on the root — every
// host link crosses, with the link's own latency (§3's one cell time
// between host and switch) as lookahead.
//
// When that leaves one shard or none, execution is serial: everything runs
// on the root, shards is 0 and the slices are nil.
func Place(spec *Spec, k int) (hostShard, swShard []int, shards int) {
	if len(spec.Switches) == 1 {
		if k = min(k, len(spec.Hosts)); k <= 1 {
			return nil, nil, 0
		}
		hostShard = make([]int, len(spec.Hosts))
		for i := range hostShard {
			hostShard[i] = i % k
		}
		return hostShard, []int{-1}, k
	}
	if k <= 1 {
		return nil, nil, 0
	}
	var tors []int
	for j := range spec.Switches {
		if spec.Switches[j].Stage == 0 {
			tors = append(tors, j)
		}
	}
	if k = min(k, len(tors)); k <= 1 {
		return nil, nil, 0
	}
	hostShard = make([]int, len(spec.Hosts))
	swShard = make([]int, len(spec.Switches))
	for j := range swShard {
		swShard[j] = -1
	}
	// Contiguous blocks over the stage-0 switches in declared order: ToR r
	// of nToR goes to shard r*k/nToR, so shard populations differ by at
	// most one rack.
	for r, j := range tors {
		swShard[j] = r * k / len(tors)
	}
	swIdx := make(map[string]int, len(spec.Switches))
	for j := range spec.Switches {
		swIdx[spec.Switches[j].Name] = j
	}
	for i := range spec.Hosts {
		hostShard[i] = swShard[swIdx[spec.Hosts[i].Switch]]
	}
	return hostShard, swShard, k
}
