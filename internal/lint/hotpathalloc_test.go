package lint

import (
	"slices"
	"testing"
)

// TestParseEscapesResolvesBothPathForms feeds parseEscapes listings
// captured from `go build -gcflags=unet/...=-m`: one replayed from a build at
// the module root, whose paths are relative to it (a main package's
// instantiated generics with a leading ./), and one from builds inside the
// packages' directories, whose paths are relative to those — a package's
// own files as ./, another package's generic as ../. Both must resolve to
// the same loaded sources; a line that is no allocation and a
// standard-library path are left out, and a path that resolves to no
// source keeps its first reading, for the caller to report.
func TestParseEscapesResolvesBothPathForms(t *testing.T) {
	const mod = "/src/unet"
	root := `# unet/internal/atm
internal/atm/aal5.go:59:20: fmt.Sprintf("atm: Segment called with %d-byte payload", ... argument...) escapes to heap
internal/atm/aal5.go:208:66: n escapes to heap
# unet/internal/fabric
internal/fabric/link.go:366:18: make([]atm.Cell, n) escapes to heap
internal/sim/fifo.go:120:14: moved to heap: c
internal/fabric/link.go:40:6: can inline DeliverRun
/usr/local/go/src/iter/iter.go:266:10: func literal escapes to heap
# unet/bench
./internal/sim/fifo.go:74:82: new(<node DYNAMICTYPE>) escapes to heap
bench/main.go:88:2: moved to heap: b
`
	inPkg := `# unet/internal/atm
./aal5.go:59:20: fmt.Sprintf("atm: Segment called with %d-byte payload", ... argument...) escapes to heap
./aal5.go:208:66: n escapes to heap
# unet/internal/fabric
./link.go:366:18: make([]atm.Cell, n) escapes to heap
../sim/fifo.go:120:14: moved to heap: c
./link.go:40:6: can inline DeliverRun
/usr/local/go/src/iter/iter.go:266:10: func literal escapes to heap
# unet/bench
../internal/sim/fifo.go:74:82: new(<node DYNAMICTYPE>) escapes to heap
./main.go:88:2: moved to heap: b
`
	want := []escapeLine{
		{pkg: "unet/internal/atm", file: mod + "/internal/atm/aal5.go", line: 59, col: 20,
			msg: `fmt.Sprintf("atm: Segment called with %d-byte payload", ... argument...) escapes to heap`},
		{pkg: "unet/internal/atm", file: mod + "/internal/atm/aal5.go", line: 208, col: 66, msg: "n escapes to heap"},
		{pkg: "unet/internal/fabric", file: mod + "/internal/fabric/link.go", line: 366, col: 18, msg: "make([]atm.Cell, n) escapes to heap"},
		{pkg: "unet/internal/fabric", file: mod + "/internal/sim/fifo.go", line: 120, col: 14, msg: "moved to heap: c"},
		{pkg: "unet/bench", file: mod + "/internal/sim/fifo.go", line: 74, col: 82, msg: "new(<node DYNAMICTYPE>) escapes to heap"},
		{pkg: "unet/bench", file: mod + "/bench/main.go", line: 88, col: 2, msg: "moved to heap: b"},
	}
	sources := map[string]bool{}
	for _, l := range want {
		sources[l.file] = true
	}
	for name, out := range map[string]string{"module root": root, "package directory": inPkg} {
		if got := parseEscapes(out, mod, "unet", sources); !slices.Equal(got, want) {
			t.Errorf("paths relative to the %s:\ngot  %+v\nwant %+v", name, got, want)
		}
	}
	// A build inside internal/ip prints udp's lines as ./udp/, which
	// neither the module root nor udp's directory resolves: the package's
	// reading is kept.
	lost := parseEscapes("# unet/internal/ip/udp\n./udp/udp.go:131:10: err escapes to heap\n", mod, "unet", sources)
	if len(lost) != 1 || lost[0].file != mod+"/internal/ip/udp/udp/udp.go" {
		t.Errorf("an unresolvable path reads %+v, want the package directory's reading", lost)
	}
}
