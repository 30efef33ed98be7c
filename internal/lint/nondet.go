package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// bannedTimeFuncs are the package-level time functions that read or wait on
// the wall clock. time.Duration values and arithmetic are of course fine —
// the virtual clock is a time.Duration.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the math/rand functions that start a random stream
// from a seed. A stream of one's own is deterministic only while its seed
// is — a rand.New(rand.NewSource(42)) buried in a model runs identically
// today and diverges the day two call sites collide on the constant, and a
// seed that bypasses faults.DeriveSeed breaks the byte-identical-at-any-
// shard-count guarantee, because per-name streams are what keep fault
// outcomes independent of shard placement. So simulated code starts none:
// the program has two roots, the engine's master stream and
// faults.NewRand, each carrying an allow that says why, and models take a
// stream from one of them. Test files pin literal seeds on purpose and are
// exempt.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// bannedOSFuncs are os identity/entropy reads that differ across processes
// and hosts.
var bannedOSFuncs = map[string]bool{
	"Getpid":   true,
	"Getppid":  true,
	"Hostname": true,
}

// Nondeterminism forbids wall-clock reads, randomness from anywhere but the
// seeded root, and process identity inside the simulation packages.
// All time must come from the engine's virtual clock and all randomness
// from a faults.NewRand stream; anything else makes two runs
// of the same simulation diverge and breaks the golden outputs.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid wall-clock time, global or privately seeded math/rand and process entropy in simulation packages",
	Run:  runNondeterminism,
}

func runNondeterminism(pass *Pass) {
	if !inSimScope(pass.Unit.PkgPath) {
		return
	}
	for _, f := range pass.Unit.Files {
		testFile := pass.Unit.ForTest || strings.HasSuffix(pass.Unit.Fset.Position(f.Pos()).Filename, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (time.Time.Sub etc.) never reach the wall clock by themselves
			}
			name := fn.Name()
			switch fn.Pkg().Path() {
			case "time":
				if bannedTimeFuncs[name] {
					pass.Reportf(call.Pos(), "time.%s reads the wall clock; simulated code must use the engine's virtual clock", name)
				}
			case "math/rand", "math/rand/v2":
				switch {
				case randConstructors[name]:
					if !testFile {
						pass.Reportf(call.Pos(), "rand.%s starts a private random stream; take one from faults.NewRand(seed, name)", name)
					}
				case name != "NewZipf": // shapes a stream it is handed
					pass.Reportf(call.Pos(), "global rand.%s is process-seeded; draw from a faults.NewRand stream", name)
				}
			case "crypto/rand":
				pass.Reportf(call.Pos(), "crypto/rand.%s is hardware entropy; simulated code must use seeded randomness", name)
			case "os":
				if bannedOSFuncs[name] {
					pass.Reportf(call.Pos(), "os.%s is process/host identity; it must not influence simulated behavior", name)
				}
			}
			return true
		})
	}
}

// calleeFunc resolves the function a call expression invokes, or nil when
// the callee is not a named function (a func-valued variable, a builtin, a
// type conversion).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Unit.Info.Uses[id].(*types.Func)
	return fn
}
