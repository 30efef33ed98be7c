package lint

import "strings"

// simScope names the packages whose code runs in simulated time: the event
// engine, the fabric/NIC/protocol models, and the experiment drivers that
// emit the paper's tables and figures, and the Split-C layer with the
// machine models it runs on (virtual time too: they render Fig. 5). Only
// code in these packages (any path containing an internal/<name> segment,
// including subpackages such as internal/ip/tcp) is subject to the
// determinism analyzers; cmd and examples run on the wall clock.
var simScope = map[string]bool{
	"sim":         true,
	"fabric":      true,
	"topo":        true,
	"faults":      true,
	"nic":         true,
	"atm":         true,
	"unet":        true,
	"uam":         true,
	"ip":          true,
	"kernelpath":  true,
	"experiments": true,
	"splitc":      true,
	"machine":     true,
}

// inSimScope reports whether pkgPath is one of the simulation packages.
func inSimScope(pkgPath string) bool { return simSegment(pkgPath) != "" }

// simSegment returns the simulation package name pkgPath falls under
// ("sim", "fabric", …), or "" when out of scope.
func simSegment(pkgPath string) string {
	segs := strings.Split(pkgPath, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && simScope[segs[i+1]] {
			return segs[i+1]
		}
	}
	return ""
}
