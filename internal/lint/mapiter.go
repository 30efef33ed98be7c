package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapIter flags range statements over maps whose body has an
// order-dependent effect: scheduling or sending something, writing output,
// or appending derived data to a slice that outlives the loop. Go
// randomizes map iteration order per run, so any such loop feeds scheduler
// or output order from a random permutation and silently breaks the golden
// outputs.
//
// The canonical fix — collect the keys, sort, iterate the sorted slice —
// stays clean by construction: an append whose only appended value is the
// range key carries no order-dependent content (the collected keys are
// about to be sorted), and the sorted iteration itself ranges over a
// slice. Loops whose effect genuinely is order-independent carry an
// //unetlint:allow mapiter annotation saying why.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag map iteration whose body schedules events, writes output or accumulates derived data",
	Run:  runMapIter,
}

// effectCallPrefixes match (case-insensitively) callee names that schedule
// work, move data or write output.
var effectCallPrefixes = []string{
	"send", "emit", "write", "print", "log", "trace", "post", "sched",
	"deliver", "push", "enqueue", "signal", "retransmit", "transmit",
	"poll", "fire", "charge", "spawn", "record", "report", "flush",
}

// effectCallExact are engine scheduling entry points.
var effectCallExact = map[string]bool{
	"At": true, "AtArg": true, "After": true, "Run": true, "RunUntil": true,
}

func runMapIter(pass *Pass) {
	if !inSimScope(pass.Unit.PkgPath) {
		return
	}
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Unit.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			var keyObj types.Object
			if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
				keyObj = pass.Unit.Info.Defs[id]
				if keyObj == nil {
					keyObj = pass.Unit.Info.Uses[id]
				}
			}
			if effect := orderEffect(pass, rs.Body, keyObj); effect != "" {
				pass.Reportf(rs.Pos(), "map iteration order is random per run and this body %s; iterate sorted keys instead", effect)
			}
			return true
		})
	}
}

// orderEffect scans a map-range body for an order-dependent effect and
// describes the first one found ("" when the body is order-neutral).
func orderEffect(pass *Pass, body *ast.BlockStmt, keyObj types.Object) string {
	var effect string
	ast.Inspect(body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = "sends on a channel"
		case *ast.CallExpr:
			var name string
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			default:
				return true
			}
			if name == "append" {
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if _, isBuiltin := pass.Unit.Info.Uses[id].(*types.Builtin); isBuiltin {
						for _, arg := range n.Args[1:] {
							if !isKeyRef(pass, arg, keyObj) {
								effect = "appends values derived from the iteration to a slice"
								return false
							}
						}
						return true
					}
				}
			}
			if effectCallExact[name] {
				effect = "schedules events (" + name + ")"
				return false
			}
			lower := strings.ToLower(name)
			for _, p := range effectCallPrefixes {
				if strings.HasPrefix(lower, p) {
					effect = "calls " + name
					return false
				}
			}
		}
		return true
	})
	return effect
}

// isKeyRef reports whether expr is exactly a reference to the range key
// variable (appending bare keys is the canonical collect-then-sort idiom).
func isKeyRef(pass *Pass, expr ast.Expr, keyObj types.Object) bool {
	if keyObj == nil {
		return false
	}
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Unit.Info.Uses[id]
	if obj == nil {
		obj = pass.Unit.Info.Defs[id]
	}
	return obj == keyObj
}
