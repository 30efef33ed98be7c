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

// allocated reports the bytes f allocates (TotalAlloc delta).
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestMemoryFollowsUse pins what a fixture costs the simulator's own heap
// before a byte is sent. SegmentSize and MemSize are logical sizes — what
// the range checks and the kernel's pinned budget read; the arrays behind
// them are resident as far as something has been written or provisioned.
// Each message has what PR 20 measured and, for scale, what PR 19 did.
func TestMemoryFollowsUse(t *testing.T) {
	tb := New(Config{Hosts: 2})
	defer tb.Close()
	owner := tb.Hosts[0].NewProcess("app")
	if got := allocated(func() {
		if _, err := tb.Hosts[0].Kernel.CreateEndpoint(nil, owner, unet.EndpointConfig{SegmentSize: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	}); got > 8<<10 {
		t.Errorf("CreateEndpoint with a 1 MiB segment allocated %d bytes, want at most 8 KB (728 measured; 1 049 304 when the segment was eager)", got)
	}

	// One peer's slots and buffers (24 × 4168 bytes), the control ring and
	// the provisioning slack — not eight peers' worth plus 1 MiB of memory
	// nobody has stored to.
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
	}) / 2; got > 150<<10 {
		t.Errorf("uam.New + Connect allocated %d bytes a side, want at most 150 KB (122 144 measured; 1 859 496 eager)", got)
	}

	// The Clos storm's fixture: 64 buffers of 4160 bytes, and an eighth of
	// slack, provisioned in each 1 MiB segment.
	clos := New(Config{Topology: topo.Clos2(8, 8, 2)})
	defer clos.Close()
	var mesh *Mesh
	if got := allocated(func() {
		var err error
		if mesh, err = clos.NewMesh(unet.EndpointConfig{SegmentSize: 1 << 20}, 64); err != nil {
			t.Fatal(err)
		}
	}); got > 24<<20 {
		t.Errorf("64-host NewMesh(1 MiB, 64 buffers) allocated %d bytes, want at most 24 MB (21.2 MB measured; 68.9 MB eager)", got)
	}

	// The run phase of the same storm at 32 messages a host allocated
	// 21 819 344 bytes at PR 19, 7.5 MB of it train scratch that every one of
	// the 160 links grew to its own longest train, and 14.5 MB (67 %) with
	// one scratch an engine, in-flight rings that doubled and per-job cell
	// copies. With every queued cell in an engine's chunk pool it is
	// 5 352 856 bytes (24.5 %): the pools at their peak backlog (2.1 MB of
	// cells in flight, 1.4 MB waiting at switch input ports, 0.3 MB in NIC
	// input FIFOs) and 0.4 MB of train scratch.
	const firstRunPhase = 21819344
	if got := allocated(func() { mesh.Storm(32, 1024) }); got > firstRunPhase*35/100 {
		t.Errorf("clos2 storm at count 32 allocated %d bytes in the run phase, want at most 35 %% of the first measure, %d", got, firstRunPhase)
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
