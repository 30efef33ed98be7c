package experiments

import (
	"fmt"
	"strings"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

// TopoStorm runs the all-to-all storm of Storm on a compiled multi-switch
// topology instead of the single-switch cluster: spec is the shape (see
// topo.Generate), shard placement follows the topology (each rack with its
// top-of-rack switch on one shard), and every message crosses the stages
// of the fabric. The rendering is byte-identical at every shard count — the
// golden topo sweep pins this, extending the single-switch equivalence
// contract to multi-hop fabrics.
func TopoStorm(spec *topo.Spec, shards, count int) (string, sim.GroupProfile) {
	tb := testbed.New(testbed.Config{Topology: spec, Shards: shards})
	defer tb.Close()
	mesh, err := tb.NewMesh(unet.EndpointConfig{SegmentSize: 1 << 20}, 64)
	if err != nil {
		panic(err)
	}
	res, end := mesh.Storm(count, 1024)

	var b strings.Builder
	fmt.Fprintf(&b, "topo storm: topo=%s hosts=%d switches=%d stages=%d shards=%d msgs=%d×1KB end=%v\n",
		spec.Kind, tb.Topo.Size(), len(spec.Switches), spec.Stages(), shards, count, end)
	for i, r := range res {
		fmt.Fprintf(&b, "  host%d sent=%d recv=%d last=%v\n", i, r.Sent, r.Received, r.LastRecv)
	}
	fmt.Fprintf(&b, "  trunks=%d qdrops=%d undelivered=%d\n",
		tb.Topo.TrunkCount(), tb.Topo.TotalQueueDrops(), tb.Topo.UndeliveredCells())
	var prof sim.GroupProfile
	if g := tb.Eng.Group(); g != nil {
		prof = g.Profile()
	}
	return b.String(), prof
}
