package apps

import (
	"math"
	"sort"
	"testing"
	"time"

	"unet/internal/machine"
	"unet/internal/sim"
	"unet/internal/splitc"
	"unet/internal/testbed"
	"unet/internal/uam"
)

func modelNodes(t *testing.T, n int, pm machine.Params) []*splitc.Node {
	t.Helper()
	e := sim.New(1)
	t.Cleanup(e.Shutdown)
	m := machine.New(e, pm, n)
	nodes := make([]*splitc.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = splitc.NewNode(m.Node(i))
	}
	return nodes
}

func uamNodes(t *testing.T, n int) ([]*splitc.Node, *testbed.Testbed) {
	t.Helper()
	tb := testbed.New(testbed.Config{Hosts: n})
	t.Cleanup(tb.Close)
	ams := make([]*uam.UAM, n)
	for i := 0; i < n; i++ {
		var err error
		ams[i], err = uam.New(tb.Hosts[i].NewProcess("splitc"), i, uam.Config{MaxPeers: n})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := uam.Connect(tb.Manager, ams[i], ams[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	nodes := make([]*splitc.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = splitc.NewNode(splitc.NewUAMTransport(ams[i], tb.Hosts[i], n))
	}
	return nodes, tb
}

func checkMM(t *testing.T, cfg MMConfig, nnodes int, cs []map[int][]float64) {
	t.Helper()
	ref := mmReference(cfg)
	g := cfg.Grid
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			owner := (i*g + j) % nnodes
			got := cs[owner][i*g+j]
			want := ref[i*g+j]
			if got == nil {
				t.Fatalf("block (%d,%d) missing on owner %d", i, j, owner)
			}
			for k := range want {
				if math.Abs(got[k]-want[k]) > 1e-9 {
					t.Fatalf("block (%d,%d)[%d] = %g, want %g", i, j, k, got[k], want[k])
				}
			}
		}
	}
}

func TestMatrixMultiplyCorrect(t *testing.T) {
	cfg := MMConfig{Grid: 4, Block: 16}
	nodes := modelNodes(t, 4, machine.CM5Params())
	res, cs := RunMM(nodes, cfg)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	checkMM(t, cfg, 4, cs)
}

func TestMatrixMultiplyOnUNetCluster(t *testing.T) {
	cfg := MMConfig{Grid: 2, Block: 16}
	nodes, _ := uamNodes(t, 2)
	res, cs := RunMM(nodes, cfg)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	checkMM(t, cfg, 2, cs)
}

// checkSorted verifies a distributed sort result: concatenated partitions
// are globally sorted and form a permutation of the input keys.
func checkSorted(t *testing.T, parts [][]uint32, inputs []uint32, partitioned bool) {
	t.Helper()
	var all []uint32
	prevMax := uint32(0)
	for i, part := range parts {
		for j := 1; j < len(part); j++ {
			if part[j] < part[j-1] {
				t.Fatalf("partition %d not sorted at %d", i, j)
			}
		}
		if partitioned && len(part) > 0 {
			if part[0] < prevMax {
				t.Fatalf("partition %d overlaps previous (%d < %d)", i, part[0], prevMax)
			}
			prevMax = part[len(part)-1]
		}
		all = append(all, part...)
	}
	if len(all) != len(inputs) {
		t.Fatalf("key count changed: %d -> %d", len(inputs), len(all))
	}
	sortedIn := append([]uint32(nil), inputs...)
	sort.Slice(sortedIn, func(i, j int) bool { return sortedIn[i] < sortedIn[j] })
	if !partitioned {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	}
	for i := range all {
		if all[i] != sortedIn[i] {
			t.Fatalf("keys differ at %d: %d vs %d", i, all[i], sortedIn[i])
		}
	}
}

// inputKeys regenerates the deterministic inputs the sort nodes created.
func inputKeys(t *testing.T, cfg SortConfig, n int) []uint32 {
	t.Helper()
	var all []uint32
	for node := 0; node < n; node++ {
		r := KeysForNode(cfg, node)
		all = append(all, r...)
	}
	return all
}

func TestSampleSortSmall(t *testing.T) {
	cfg := SortConfig{KeysPerNode: 1000, Oversample: 32, Seed: 2}
	nodes := modelNodes(t, 4, machine.CM5Params())
	res, parts := RunSampleSort(nodes, cfg, false)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	checkSorted(t, parts, inputKeys(t, cfg, 4), true)
}

func TestSampleSortBulk(t *testing.T) {
	cfg := SortConfig{KeysPerNode: 1000, Oversample: 32, Seed: 2}
	nodes := modelNodes(t, 4, machine.MeikoParams())
	res, parts := RunSampleSort(nodes, cfg, true)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	checkSorted(t, parts, inputKeys(t, cfg, 4), true)
}

func TestSampleSortBulkOnUNetCluster(t *testing.T) {
	cfg := SortConfig{KeysPerNode: 600, Oversample: 16, Seed: 5}
	nodes, _ := uamNodes(t, 3)
	_, parts := RunSampleSort(nodes, cfg, true)
	checkSorted(t, parts, inputKeys(t, cfg, 3), true)
}

func TestRadixSortSmall(t *testing.T) {
	cfg := SortConfig{KeysPerNode: 512, Seed: 4}
	nodes := modelNodes(t, 4, machine.CM5Params())
	res, parts := RunRadixSort(nodes, cfg, false)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	checkSorted(t, parts, inputKeys(t, cfg, 4), true)
}

func TestRadixSortBulk(t *testing.T) {
	cfg := SortConfig{KeysPerNode: 512, Seed: 4}
	nodes := modelNodes(t, 4, machine.CM5Params())
	res, parts := RunRadixSort(nodes, cfg, true)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	checkSorted(t, parts, inputKeys(t, cfg, 4), true)
}

func TestConnectedComponentsCorrect(t *testing.T) {
	cfg := CCConfig{VerticesPerNode: 256, Degree: 3, Seed: 6}
	nodes := modelNodes(t, 4, machine.CM5Params())
	res, labels := RunCC(nodes, cfg)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	ref := ccReference(cfg, 4)
	for node, part := range labels {
		for lv, lbl := range part {
			gid := node*cfg.VerticesPerNode + lv
			if lbl != ref[gid] {
				t.Fatalf("vertex %d label = %d, want %d", gid, lbl, ref[gid])
			}
		}
	}
}

func TestConjugateGradientConverges(t *testing.T) {
	cfg := CGConfig{Grid: 16, Iters: 80}
	nodes := modelNodes(t, 4, machine.MeikoParams())
	res, residual := RunCG(nodes, cfg)
	if res.Time <= 0 {
		t.Fatal("no time elapsed")
	}
	// CG on the SPD Laplacian must reduce the residual dramatically.
	if residual > 1e-6 {
		t.Fatalf("residual = %g after %d iters, want < 1e-6", residual, cfg.Iters)
	}
}

func TestCGSameResidualOnAllMachines(t *testing.T) {
	cfg := CGConfig{Grid: 16, Iters: 20}
	var first float64
	for i, pm := range []machine.Params{machine.CM5Params(), machine.MeikoParams()} {
		nodes := modelNodes(t, 2, pm)
		_, res := RunCG(nodes, cfg)
		if i == 0 {
			first = res
		} else if res != first {
			t.Fatalf("residual differs between machines: %g vs %g", res, first)
		}
	}
}

// TestCGOnUNetClusterKeepsAnEarlyHaloRow: at grid 128 a neighbour leaves
// the dot product's all-reduce first and its boundary row lands before
// this node reaches the halo exchange. Clearing the arrival flags on entry
// lost that row, and the node polled for ever; a watchdog one virtual
// second in fails the run instead of letting it spin.
func TestCGOnUNetClusterKeepsAnEarlyHaloRow(t *testing.T) {
	cfg := CGConfig{Grid: 128, Iters: 5}
	nodes, tb := uamNodes(t, 8)
	tb.Hosts[0].Spawn("watchdog", func(p *sim.Proc) {
		p.Sleep(time.Second)
		if tb.Eng.PendingEvents() > 0 {
			panic("conjugate gradient still polling after a virtual second")
		}
	})
	defer func() {
		if r := recover(); r != nil {
			t.Fatal(r)
		}
	}()
	_, residual := RunCG(nodes, cfg)
	_, want := RunCG(modelNodes(t, 8, machine.CM5Params()), cfg)
	if residual != want {
		t.Fatalf("residual %g on U-Net ATM, %g on the CM-5 model; want the same arithmetic", residual, want)
	}
}

// The Figure 5 shape: the CM-5 (slow CPU, fast small messages) must beat
// the Meiko on the small-message sample sort permutation phase relative to
// its bulk performance. Assert the directional relationship the paper
// reports: bulk variants help the Meiko more than the CM-5.
func TestBulkVariantHelpsMeikoMoreThanCM5(t *testing.T) {
	cfg := SortConfig{KeysPerNode: 2000, Oversample: 32, Seed: 7}
	speedup := func(pm machine.Params) float64 {
		small := modelNodes(t, 4, pm)
		rs, _ := RunSampleSort(small, cfg, false)
		bulk := modelNodes(t, 4, pm)
		rb, _ := RunSampleSort(bulk, cfg, true)
		return float64(rs.Time) / float64(rb.Time)
	}
	cm5 := speedup(machine.CM5Params())
	meiko := speedup(machine.MeikoParams())
	if meiko <= cm5 {
		t.Fatalf("bulk speedup: Meiko %.2f ≤ CM-5 %.2f — Figure 5 relationship violated", meiko, cm5)
	}
}

// TestRadixSortOnUNetClusterRestagesNoQueuedSlot sorts enough keys over
// UAM that go-back-N retransmissions are still in the send queue when
// their acknowledgment frees the window: a window slot re-staged under a
// queued descriptor goes out as the new message's header with the old
// message's length, and the receiver takes the truncated message in order.
func TestRadixSortOnUNetClusterRestagesNoQueuedSlot(t *testing.T) {
	cfg := SortConfig{KeysPerNode: 16384, Seed: 1}
	nodes, _ := uamNodes(t, 8)
	_, parts := RunRadixSort(nodes, cfg, false)
	checkSorted(t, parts, inputKeys(t, cfg, 8), true)
}

// mmReference computes the reference product serially for verification.
func mmReference(cfg MMConfig) map[int][]float64 {
	g, b := cfg.Grid, cfg.Block
	out := map[int][]float64{}
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			c := make([]float64, b*b)
			for k := 0; k < g; k++ {
				a := genBlock(1, i, k, b)
				bb := genBlock(2, k, j, b)
				for r := 0; r < b; r++ {
					for kk := 0; kk < b; kk++ {
						ark := a[r*b+kk]
						for cc := 0; cc < b; cc++ {
							c[r*b+cc] += ark * bb[kk*b+cc]
						}
					}
				}
			}
			out[i*g+j] = c
		}
	}
	return out
}

// ccReference computes components serially with union-find.
func ccReference(cfg CCConfig, nnodes int) []uint32 {
	total := cfg.VerticesPerNode * nnodes
	parent := make([]uint32, total)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range ccEdges(cfg, nnodes) {
		ra, rb := find(e[0]), find(e[1])
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	out := make([]uint32, total)
	for i := range out {
		out[i] = find(uint32(i))
	}
	// Normalize: the label-propagation answer is the minimum vertex id in
	// the component, which union-by-min find yields directly.
	return out
}
