package experiments

import (
	"fmt"
	"strings"

	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/unet"
)

// Storm runs the all-to-all cell storm — every host sends count 1 KB
// messages to every other host — on a cluster with the given shape and
// returns the rendered per-host results plus the window-protocol profile
// of the run. The report is deterministic: it is byte-identical at every
// shard count (the golden shard sweeps pin this). The profile is a
// wall-clock diagnostic — windows run, events per window, barrier waits,
// fast-forwards — and is empty for a serial run; it never feeds virtual
// time and is not part of any golden output.
func Storm(hosts, shards, count int) (string, sim.GroupProfile) {
	tb := testbed.New(testbed.Config{Hosts: hosts, Shards: shards})
	defer tb.Close()
	mesh, err := tb.NewMesh(unet.EndpointConfig{SegmentSize: 1 << 20}, 64)
	if err != nil {
		panic(err)
	}
	res, end := mesh.Storm(count, 1024)

	var b strings.Builder
	fmt.Fprintf(&b, "all-to-all storm: hosts=%d shards=%d msgs=%d×1KB end=%v\n",
		hosts, shards, count, end)
	for i, r := range res {
		fmt.Fprintf(&b, "  host%d sent=%d recv=%d last=%v\n", i, r.Sent, r.Received, r.LastRecv)
	}
	var prof sim.GroupProfile
	if g := tb.Eng.Group(); g != nil {
		prof = g.Profile()
	}
	return b.String(), prof
}
