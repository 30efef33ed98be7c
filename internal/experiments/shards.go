package experiments

import "runtime"

// Shards selects the testbed execution layout for the pair experiments:
// 0 runs each simulation serially on one engine (the default); k ≥ 2 places
// each host on its own shard engine, run on parallel goroutines under the
// conservative window protocol (internal/sim shard.go). Negative values
// mean GOMAXPROCS. Results are byte-identical at any setting — sharding
// changes wall-clock time, never virtual time; the golden shard-sweep test
// enforces this.
//
// Experiments whose model is inherently single-engine keep running
// serially regardless: the kernel/Ethernet path (its shared-medium Ethernet
// model couples both hosts on one engine), the Split-C machine sweeps, and
// the machine comparison tables.
var Shards = 0

// shardCount resolves the Shards knob to a concrete shard count.
func shardCount() int {
	if Shards < 0 {
		return runtime.GOMAXPROCS(0) //unetlint:allow rawgo reads core count to size the shard fleet; outputs are shard-count-invariant by the determinism guarantee
	}
	return Shards
}
