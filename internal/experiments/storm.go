package experiments

import (
	"fmt"
	"strings"

	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

// Storm runs the all-to-all cell storm — every host sends count 1 KB
// messages to every other host — on the paper's single-switch cluster of
// the given size and returns the rendered per-host results. The report is
// deterministic: it is byte-identical at every shard count (the golden
// shard sweeps pin this).
func Storm(hosts, shards, count int) string {
	head := fmt.Sprintf("all-to-all storm: hosts=%d shards=%d msgs=%d×1KB", hosts, shards, count)
	return stormReport(topo.Star("atm", hosts), head, false, shards, count)
}

// TopoStorm runs the storm of Storm on a multi-switch topology: spec is
// the shape (see topo.Generate), shards are laid out as on the one-switch
// cluster (testbed.Config.Shards), and every message crosses the stages of
// the fabric. The rendering, which adds the fabric's trunk and drop
// counts, is byte-identical at every shard count — the golden topo sweep
// pins this, extending the single-switch equivalence contract to
// multi-hop fabrics.
func TopoStorm(spec *topo.Spec, shards, count int) string {
	head := fmt.Sprintf("topo storm: topo=%s hosts=%d switches=%d stages=%d shards=%d msgs=%d×1KB",
		spec.Kind, len(spec.Hosts), len(spec.Switches), spec.Stages(), shards, count)
	return stormReport(spec, head, true, shards, count)
}

// stormReport runs the storm on spec and renders head with the end time,
// a line per host and, if asked, the fabric's trailer.
func stormReport(spec *topo.Spec, head string, trailer bool, shards, count int) string {
	tb := testbed.New(testbed.Config{Topology: spec, Shards: shards})
	defer tb.Close()
	mesh, err := tb.NewMesh(unet.EndpointConfig{SegmentSize: 1 << 20}, 64)
	if err != nil {
		panic(err)
	}
	res, end := mesh.Storm(count, 1024)

	var b strings.Builder
	fmt.Fprintf(&b, "%s end=%v\n", head, end)
	for i, r := range res {
		fmt.Fprintf(&b, "  host%d sent=%d recv=%d last=%v\n", i, r.Sent, r.Received, r.LastRecv)
	}
	if trailer {
		fmt.Fprintf(&b, "  trunks=%d qdrops=%d undelivered=%d\n",
			tb.Topo.TrunkCount(), tb.Topo.TotalQueueDrops(), tb.Topo.UndeliveredCells())
	}
	return b.String()
}
