package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CostCharge checks the paper's processing-overhead model (§2.1): every
// exported NIC/fabric method that moves cells — the fast paths — must
// account virtual time for the work, either directly (advancing a cost
// cursor, sleeping, referencing a calibrated cost/latency parameter) or by
// delegating to anything that does. A data-moving method that charges
// nothing models infinitely fast hardware and skews every calibrated
// figure.
//
// A method is considered a fast path when it is an exported method whose
// parameters include a cell (a named type Cell, possibly a slice or
// pointer). Charging evidence propagates over the whole-program call graph,
// so a switch method that delegates its accounting to a faults helper that
// in turn advances a NIC cursor is still proven charged — same-package
// delegation is no longer a requirement. Intake paths that legitimately
// cost nothing (a FIFO accepting an already-paid-for arrival) carry an
// //unetlint:allow costcharge annotation naming where the cost is charged
// instead.
//
// internal/faults is held to the opposite contract: an injector judges
// cells on the transmitter's critical path, and the Injector interface
// promises that judging charges no virtual time — impairments reshape the
// delivery schedule, they never stall the transmitter. There a cell-taking
// method that reaches a time-spending call — through any number of
// packages — is the defect.
var CostCharge = &Analyzer{
	Name:       "costcharge",
	Doc:        "require exported NIC/fabric cell-moving methods to charge virtual-time cost; forbid fault injectors from spending it",
	RunProgram: runCostCharge,
}

// chargeCalls are callee names that unambiguously spend virtual time.
var chargeCalls = map[string]bool{
	"Sleep":      true,
	"SleepTo":    true,
	"SleepUntil": true,
	"WaitReady":  true,
	"syncTo":     true,
	"Charge":     true,
}

// costNameSuffixes mark selectors that read a calibrated timing parameter.
var costNameSuffixes = []string{"Cost", "Time", "Latency", "Overhead", "PerCell", "Fixed"}

// costIdents are local names whose mention shows cursor arithmetic.
var costIdents = map[string]bool{"cursor": true, "latency": true}

func runCostCharge(pass *ProgramPass) {
	prog := pass.Prog

	// Direct evidence per node, program-wide: whether the body itself
	// charges cost (any evidence) and whether it spends virtual time (an
	// unambiguous time-spending call — the stricter signal the injector rule
	// needs, since injectors may read timing parameters like CellTime
	// without ever stalling anyone).
	charges := make(map[string]bool)
	spends := make(map[string]bool)
	for _, n := range prog.nodes {
		if directlyCharges(n) {
			charges[n.ID] = true
		}
		if directlySpends(n) {
			spends[n.ID] = true
		}
	}

	// Propagate over the call graph: a function charges (or spends) if
	// anything it reaches does, across package boundaries. Callee IDs with
	// no source node (stdlib, export-data-only) contribute nothing.
	for changed := true; changed; {
		changed = false
		for _, n := range prog.nodes {
			for _, e := range n.Calls {
				if charges[e.CalleeID] && !charges[n.ID] {
					charges[n.ID] = true
					changed = true
				}
				if spends[e.CalleeID] && !spends[n.ID] {
					spends[n.ID] = true
					changed = true
				}
			}
		}
	}

	for _, n := range prog.nodes {
		if n.Decl == nil || n.InTestFile || n.Decl.Recv == nil {
			continue
		}
		fn := n.Fn
		switch simSegment(n.Unit.PkgPath) {
		case "faults":
			if spends[n.ID] && hasCellParam(fn) {
				pass.Reportf(n.Decl.Name.Pos(), "fault-injector method %s judges cells but spends virtual time (directly or transitively); impairments must reshape the delivery schedule, never stall the transmitter", n.Decl.Name.Name)
			}
		case "nic", "fabric", "topo":
			if n.Decl.Name.IsExported() && !charges[n.ID] && hasCellParam(fn) {
				pass.Reportf(n.Decl.Name.Pos(), "exported fast-path method %s moves cells but never charges a virtual-time cost (no cursor arithmetic, sleep, or cost-parameter reference, directly or transitively)", n.Decl.Name.Name)
			}
		}
	}
}

// directlySpends reports whether the node's body contains an unambiguous
// time-spending call (Sleep, charge, …) — the evidence that convicts a
// fault injector, which must never stall the transmitter.
func directlySpends(node *FuncNode) bool {
	found := false
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			var name string
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if chargeCalls[name] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// directlyCharges reports whether the node's body contains first-hand
// charging evidence.
func directlyCharges(node *FuncNode) bool {
	found := false
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			var name string
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if chargeCalls[name] {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if _, isPkg := node.Unit.Info.Uses[id].(*types.PkgName); isPkg {
					return true // time.Duration etc.: a package reference, not a cost table
				}
			}
			if isCostName(n.Sel.Name) {
				found = true
				return false
			}
		case *ast.Ident:
			if costIdents[n.Name] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isCostName(name string) bool {
	if costIdents[name] {
		return true
	}
	for _, suf := range costNameSuffixes {
		if strings.HasSuffix(name, suf) && name != suf {
			return true
		}
	}
	return false
}

// hasCellParam reports whether fn takes a cell (Cell, *Cell, or []Cell by
// named-type name) among its parameters.
func hasCellParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		switch u := t.(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Pointer:
			t = u.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Cell" {
			return true
		}
	}
	return false
}
