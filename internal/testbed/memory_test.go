package testbed

import (
	"runtime"
	"strings"
	"testing"

	"unet/internal/ip"
	"unet/internal/topo"
	"unet/internal/uam"
	"unet/internal/unet"
)

// raceAlloc is headroom for what the race detector's runtime allocates,
// set in race_test.go; the bounds below are for a normal build.
var raceAlloc uint64

// allocated reports the bytes f allocates (TotalAlloc delta).
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestMemoryFollowsUse pins what a fixture costs the simulator's own heap.
// SegmentSize and MemSize are logical sizes — what the range checks and the
// kernel's pinned budget read; the arrays behind them are resident a 1 KiB
// page at a time, as bytes land. Each message has the measured figure and,
// for scale, what a resident prefix grown from offset 0 cost.
func TestMemoryFollowsUse(t *testing.T) {
	tb := New(Config{Hosts: 2})
	defer tb.Close()
	owner := tb.Hosts[0].NewProcess("app")
	if got := allocated(func() {
		if _, err := tb.Hosts[0].Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{SegmentSize: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	}); got > 8<<10 {
		t.Errorf("CreateEndpoint with a 1 MiB segment allocated %d bytes, want at most 8 KB (680 measured; 1 049 304 when the segment was eager)", got)
	}

	// The receive carve is offsets on the free queue until the NI fills a
	// buffer; what is left is the endpoint, the queues and the peer state —
	// not one peer's slots and buffers made resident up front.
	if got := allocated(func() {
		a, err := uam.New(tb.Hosts[0].NewProcess("am"), 0, uam.Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := uam.New(tb.Hosts[1].NewProcess("am"), 1, uam.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := uam.Connect(tb.Manager, a, b); err != nil {
			t.Fatal(err)
		}
	}) / 2; got > 16<<10 {
		t.Errorf("uam.New + Connect allocated %d bytes a side, want at most 16 KB (7.5 KB measured; 122 144 with the prefix)", got)
	}

	// The Clos storm's fixture: 64 buffers of 4160 bytes pushed in each
	// 1 MiB segment, none of them resident yet.
	clos := New(Config{Topology: topo.Clos2(8, 8, 2)})
	defer clos.Close()
	var mesh *Mesh
	built := allocated(func() {
		var err error
		if mesh, err = clos.NewMesh(unet.EndpointConfig{SegmentSize: 1 << 20}, 64); err != nil {
			t.Fatal(err)
		}
	})
	if built > 2500<<10+raceAlloc {
		t.Errorf("64-host NewMesh(1 MiB, 64 buffers) allocated %d bytes, want at most 2.5 MB (1.81 MB measured; 21.2 MB with the prefix)", built)
	}

	// The first storm at 32 messages a host is where the receive buffers'
	// pages land, so set-up and run are bounded together: the pages the
	// NI's DMA fills, the chunk pools at their peak backlog and the train
	// scratch. The prefix paid for its pages in set-up (21.2 MB) and ran
	// in 5.35 MB.
	if got := built + allocated(func() { mesh.Storm(32, 1024) }); got > 10800<<10+raceAlloc {
		t.Errorf("64-host NewMesh and its first clos2 storm at count 32 allocated %d bytes, want at most 10.8 MB (10.4 MB measured; 11.9 MB when each cell in flight carried its own arrival stamp in a pool of its own; 26.6 MB with the prefix)", got)
	}

	// The island overlay as the gossip experiment builds it before its
	// first round: 256 island switches in a ring with antipodal chords, one
	// host on each with an 8 KB-segment endpoint, a channel per overlay
	// edge — three a host. A host's share is its switch, links, device,
	// endpoint and the label-table rows its three channels take.
	const islands = 256
	if got := allocated(func() {
		isl := New(Config{Topology: topo.Island(islands, 1)})
		defer isl.Close()
		eps := make([]*unet.Endpoint, islands)
		for i := range eps {
			ep, err := isl.Hosts[i].Kernel.CreateEndpoint(nil, isl.Hosts[i].NewProcess("app"), unet.EndpointConfig{SegmentSize: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		for i := range eps {
			for _, j := range []int{(i + 1) % islands, i + islands/2} {
				if j < islands {
					if _, err := isl.Manager.Connect(nil, eps[i], eps[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}) / islands; got > 7<<10+raceAlloc/islands {
		t.Errorf("256-island overlay allocated %d bytes a host, want at most 7 KB (5 787 measured; 9 165 when every label-indexed table started at VCI 0)", got)
	}
}

// TestConduitStagingMustFitTheSegment: a conduit whose staging ring runs
// past the segment is refused when it is built, with the sizes in the
// message — not on the first send that wraps that far, as ErrBadOffset.
func TestConduitStagingMustFitTheSegment(t *testing.T) {
	tb := New(Config{Hosts: 2})
	defer tb.Close()
	pr, err := tb.NewPair(0, 1, unet.EndpointConfig{}, 4) // the default 256 KB segment
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.NewUNetConduit(pr.EpA, pr.ChA, 1, 2, pr.StageA); err == nil || !strings.Contains(err.Error(), "262144-byte segment") {
		t.Errorf("72 MTU-sized staging slots in a 256 KB segment: err %v, want one naming the segment size", err)
	}
	if _, _, err := tb.NewIPConduitPair(0, 1); err != nil {
		t.Errorf("the fixture's own sizing refused: %v", err)
	}
}
