package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Interprocedural engine. A Program is built once per lint run over every
// loaded unit: an index of all source-level functions (declarations and
// function literals), a conservative call graph connecting them across
// package boundaries, and the directive-driven fact sets (hot-path roots,
// leader-folded fields) the whole-program analyzers consume.
//
// Cross-package call edges cannot rely on *types.Func identity: a function
// declared in package B is one object in B's own source-checked unit and a
// different, export-data object in every unit that imports B. Nodes are
// therefore keyed by types.Func.FullName(), which both universes render
// identically, and edges resolve lazily through that key.
//
// The graph is conservative in the class-hierarchy sense: a call through an
// interface method adds an edge to every source-declared method of the same
// name whose receiver loosely implements the interface (loose = named types
// compare by package path and name rather than object identity, again
// because the two universes never share objects). Calls through plain
// function values resolve to nothing and are recorded as dynamic sites, so
// analyzers that need a sound reachability proof (hotpathalloc) can treat
// them as holes instead of silently ignoring them.

// FuncNode is one function in the program: a declared function or method,
// or a function literal (whose enclosing declaration, if any, carries an
// edge to it — a literal's behavior is attributed to its creation site).
type FuncNode struct {
	ID   string      // FullName for declarations, pkg#file:line:col for literals
	Fn   *types.Func // nil for literals
	Unit *Unit
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt

	Parent *FuncNode // enclosing function of a literal, nil otherwise

	Calls []Edge      // resolved static + interface (CHA) call edges
	Dyn   []token.Pos // calls through function values: unresolvable callees

	InTestFile bool // declared in a _test.go file (or an external test unit)
}

// Name returns a human-readable name for diagnostics.
func (n *FuncNode) Name() string {
	if n.Fn != nil {
		return n.Fn.FullName()
	}
	return n.ID
}

// Edge is one resolved call site.
type Edge struct {
	CalleeID string
	Call     *ast.CallExpr // the call site
	Iface    bool          // resolved via class-hierarchy analysis, not a static target
}

// Program is the whole-program view shared by the interprocedural
// analyzers.
type Program struct {
	Units []*Unit
	Fset  *token.FileSet
	Dir   string // directory the units were loaded from (module root for Load)

	Nodes  map[string]*FuncNode
	nodes  []*FuncNode            // stable order
	byFile map[string][]*FuncNode // position lookup per file

	// Directive-driven fact sets.
	HotPath map[string]bool // node IDs annotated //unetlint:hotpath

	diags []Diagnostic // misplaced-directive findings from program build
}

// BuildProgram indexes the units and constructs the call graph.
func BuildProgram(units []*Unit) *Program {
	p := &Program{
		Units:   units,
		Nodes:   make(map[string]*FuncNode),
		byFile:  make(map[string][]*FuncNode),
		HotPath: make(map[string]bool),
	}
	if len(units) > 0 {
		p.Fset = units[0].Fset
		p.Dir = units[0].LoadDir
	}

	// Pass 1: collect nodes for every declaration and literal.
	for _, u := range units {
		for _, f := range u.Files {
			fname := u.Fset.Position(f.Pos()).Filename
			testFile := u.ForTest || strings.HasSuffix(fname, "_test.go")
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := u.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Body == nil {
						continue
					}
					node := &FuncNode{ID: fn.FullName(), Fn: fn, Unit: u, Decl: d, Body: d.Body, InTestFile: testFile}
					p.addNode(node)
					p.collectLiterals(u, node, d.Body, testFile)
				case *ast.GenDecl:
					// Package-level function literals (var handlers = func(){…},
					// or literals inside composite-literal struct fields) get
					// top-level nodes of their own so no analyzer's walk can
					// lose them.
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							p.collectLiteralsExpr(u, nil, v, testFile)
						}
					}
				}
			}
		}
	}

	// Pass 2: resolve calls.
	methodIndex := p.buildMethodIndex()
	for _, node := range p.nodes {
		p.resolveCalls(node, methodIndex)
	}

	// Pass 3: directive-driven facts.
	p.collectMarkers()
	return p
}

func (p *Program) addNode(n *FuncNode) {
	if _, dup := p.Nodes[n.ID]; dup {
		// Two declarations can share a FullName only across test/non-test
		// variants of a package; keep the first (non-test units sort first).
		return
	}
	p.Nodes[n.ID] = n
	p.nodes = append(p.nodes, n)
	file := p.Fset.Position(p.nodeSpan(n)).Filename
	p.byFile[file] = append(p.byFile[file], n)
}

func (p *Program) nodeSpan(n *FuncNode) token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// litID builds a stable key for a function literal.
func (p *Program) litID(u *Unit, lit *ast.FuncLit) string {
	pos := u.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s#%s:%d:%d", u.PkgPath, pos.Filename, pos.Line, pos.Column)
}

// collectLiterals finds function literals nested in body (not descending
// into them recursively here; each literal recurses for its own children)
// and registers them as nodes parented to encloser.
func (p *Program) collectLiterals(u *Unit, encloser *FuncNode, body ast.Node, testFile bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if lit == encloserLit(encloser) {
			return true // the node itself
		}
		node := &FuncNode{ID: p.litID(u, lit), Unit: u, Lit: lit, Body: lit.Body, Parent: encloser, InTestFile: testFile}
		p.addNode(node)
		return false // node recurses for its own nested literals
	})
	// Recurse for the literals just added.
	for _, child := range p.byFile[p.Fset.Position(body.Pos()).Filename] {
		if child.Parent == encloser && child.Lit != nil && child.Lit.Pos() >= body.Pos() && child.Lit.End() <= body.End() {
			p.collectLiterals(u, child, child.Body, testFile)
		}
	}
}

func (p *Program) collectLiteralsExpr(u *Unit, encloser *FuncNode, expr ast.Expr, testFile bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		node := &FuncNode{ID: p.litID(u, lit), Unit: u, Lit: lit, Body: lit.Body, Parent: encloser, InTestFile: testFile}
		p.addNode(node)
		p.collectLiterals(u, node, lit.Body, testFile)
		return false
	})
}

func encloserLit(n *FuncNode) *ast.FuncLit {
	if n == nil {
		return nil
	}
	return n.Lit
}

// ownStmts walks node's body without descending into nested function
// literals (which are nodes of their own).
func (p *Program) ownStmts(node *FuncNode, visit func(ast.Node) bool) {
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != node.Lit {
			return false
		}
		return visit(n)
	})
}

// resolveCalls records node's outgoing edges: static calls, interface calls
// via CHA, immediately-invoked literals, and — when nothing resolves — a
// dynamic-call site.
func (p *Program) resolveCalls(node *FuncNode, mi *methodIndex) {
	u := node.Unit
	p.ownStmts(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A literal created inside this node behaves as if called here,
		// whether it runs now, deferred, or as a stored callback.
		// (Creation-site attribution; see package comment.)
		fun := ast.Unparen(call.Fun)
		if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		switch fn := fun.(type) {
		case *ast.Ident:
			switch obj := u.Info.Uses[fn].(type) {
			case *types.Func:
				node.Calls = append(node.Calls, Edge{CalleeID: obj.Origin().FullName(), Call: call})
				return true
			case *types.Builtin:
				return true
			case *types.TypeName:
				return true
			case *types.Var:
				node.Calls = append(node.Calls, p.edgeForFuncValue(node, call, obj)...)
				if len(node.Calls) == 0 || node.Calls[len(node.Calls)-1].Call != call {
					node.Dyn = append(node.Dyn, call.Pos())
				}
				return true
			}
			node.Dyn = append(node.Dyn, call.Pos())
		case *ast.SelectorExpr:
			if obj, ok := u.Info.Uses[fn.Sel].(*types.Func); ok {
				// Interface method call? Resolve implementors too.
				if sel, ok := u.Info.Selections[fn]; ok {
					if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
						for _, m := range mi.implementors(sel.Recv(), fn.Sel.Name) {
							node.Calls = append(node.Calls, Edge{CalleeID: m.ID, Call: call, Iface: true})
						}
						return true
					}
				}
				node.Calls = append(node.Calls, Edge{CalleeID: obj.Origin().FullName(), Call: call})
				return true
			}
			if _, ok := u.Info.Uses[fn.Sel].(*types.Var); ok {
				node.Dyn = append(node.Dyn, call.Pos()) // func-typed field or variable
				return true
			}
			if _, ok := u.Info.Uses[fn.Sel].(*types.TypeName); ok {
				return true
			}
			node.Dyn = append(node.Dyn, call.Pos())
		case *ast.FuncLit:
			node.Calls = append(node.Calls, Edge{CalleeID: p.litID(u, fn), Call: call})
		default:
			node.Dyn = append(node.Dyn, call.Pos())
		}
		return true
	})
}

// edgeForFuncValue resolves calls through a local variable that was only
// ever assigned one statically-known function (v := pkg.F; …; v()) — the
// single idiom worth resolving; anything fancier stays a dynamic site.
func (p *Program) edgeForFuncValue(node *FuncNode, call *ast.CallExpr, obj *types.Var) []Edge {
	var target *types.Func
	single := true
	p.ownStmts(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || !single {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			lobj := node.Unit.Info.Defs[id]
			if lobj == nil {
				lobj = node.Unit.Info.Uses[id]
			}
			if lobj != obj || i >= len(as.Rhs) {
				continue
			}
			var rid *ast.Ident
			switch r := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.Ident:
				rid = r
			case *ast.SelectorExpr:
				rid = r.Sel
			}
			if rid == nil {
				single = false
				continue
			}
			if fn, ok := node.Unit.Info.Uses[rid].(*types.Func); ok {
				if target != nil && target.FullName() != fn.FullName() {
					single = false
				}
				target = fn
			} else {
				single = false
			}
		}
		return true
	})
	if single && target != nil {
		return []Edge{{CalleeID: target.FullName(), Call: call}}
	}
	return nil
}

// NodeAt returns the innermost function containing pos (nil when pos lies
// outside any indexed function, e.g. package scope).
func (p *Program) NodeAt(pos token.Pos) *FuncNode {
	file := p.Fset.Position(pos).Filename
	var best *FuncNode
	var bestSpan token.Pos = 1 << 62
	for _, n := range p.byFile[file] {
		var lo, hi token.Pos
		if n.Decl != nil {
			lo, hi = n.Decl.Pos(), n.Decl.End()
		} else {
			lo, hi = n.Lit.Pos(), n.Lit.End()
		}
		if pos < lo || pos > hi {
			continue
		}
		if span := hi - lo; span < bestSpan {
			best, bestSpan = n, span
		}
	}
	return best
}

// UnitAt returns the unit owning pos's file, preferring non-test units.
func (p *Program) UnitAt(pos token.Pos) *Unit {
	file := p.Fset.Position(pos).Filename
	var fallback *Unit
	for _, u := range p.Units {
		for _, f := range u.Files {
			if p.Fset.Position(f.Pos()).Filename == file {
				if !u.ForTest {
					return u
				}
				fallback = u
			}
		}
	}
	return fallback
}

// collectMarkers resolves the //unetlint:hotpath directives into the fact
// set, reporting misplaced ones.
func (p *Program) collectMarkers() {
	for _, u := range p.Units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, directivePrefix)
					if !ok {
						continue
					}
					if verb, _, _ := strings.Cut(rest, " "); verb == "hotpath" {
						p.markHotPath(u, f, c)
					}
				}
			}
		}
	}
}

// markHotPath attaches a hotpath directive to the function whose doc
// comment (or the line directly above whose declaration) carries it.
func (p *Program) markHotPath(u *Unit, f *ast.File, c *ast.Comment) {
	line := u.Fset.Position(c.Pos()).Line
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		declLine := u.Fset.Position(fd.Pos()).Line
		inDoc := fd.Doc != nil &&
			line >= u.Fset.Position(fd.Doc.Pos()).Line &&
			line <= u.Fset.Position(fd.Doc.End()).Line
		if inDoc || line == declLine-1 {
			if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
				p.HotPath[fn.FullName()] = true
				return
			}
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: "unetlint",
		Pos:      u.Fset.Position(c.Pos()),
		Message:  "//unetlint:hotpath must sit in (or directly above) a function declaration's doc comment",
	})
}

// methodIndex supports class-hierarchy resolution of interface calls.
type methodIndex struct {
	prog    *Program
	byName  map[string][]methodCand
	checked map[string][]*FuncNode // memo: ifaceKey+name -> implementors
}

type methodCand struct {
	node *FuncNode
	recv types.Type // the receiver's named (or pointer-to-named) type
}

func (p *Program) buildMethodIndex() *methodIndex {
	mi := &methodIndex{prog: p, byName: make(map[string][]methodCand), checked: make(map[string][]*FuncNode)}
	for _, n := range p.nodes {
		if n.Fn == nil {
			continue
		}
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		mi.byName[n.Fn.Name()] = append(mi.byName[n.Fn.Name()], methodCand{node: n, recv: sig.Recv().Type()})
	}
	return mi
}

// implementors returns the source-declared methods named name whose
// receiver type loosely implements iface.
func (mi *methodIndex) implementors(iface types.Type, name string) []*FuncNode {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := looseTypeKey(iface) + "." + name
	if got, ok := mi.checked[key]; ok {
		return got
	}
	var ifaceSig *types.Signature
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			ifaceSig, _ = it.Method(i).Type().(*types.Signature)
		}
	}
	var out []*FuncNode
	if ifaceSig != nil {
		for _, cand := range mi.byName[name] {
			candSig, ok := cand.node.Fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			if !looseSigMatch(candSig, ifaceSig) {
				continue
			}
			if looseImplements(mi.byName, cand.recv, it) {
				out = append(out, cand.node)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	mi.checked[key] = out
	return out
}

// looseImplements reports whether the concrete receiver type recv provides
// every method of it (by name and loose signature), using the
// source-declared method index. It errs toward true only when signatures
// genuinely match shape-for-shape.
func looseImplements(byName map[string][]methodCand, recv types.Type, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		mSig, ok := m.Type().(*types.Signature)
		if !ok {
			return false
		}
		found := false
		for _, cand := range byName[m.Name()] {
			if looseTypeKey(derefNamed(cand.recv)) != looseTypeKey(derefNamed(recv)) {
				continue
			}
			if candSig, ok := cand.node.Fn.Type().(*types.Signature); ok && looseSigMatch(candSig, mSig) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return it.NumMethods() > 0
}

func derefNamed(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// looseSigMatch compares two signatures ignoring receivers, with named
// types equal iff their package path and name agree (object identity is
// meaningless across source and export-data universes).
func looseSigMatch(a, b *types.Signature) bool {
	if a.Params().Len() != b.Params().Len() || a.Results().Len() != b.Results().Len() || a.Variadic() != b.Variadic() {
		return false
	}
	for i := 0; i < a.Params().Len(); i++ {
		if looseTypeKey(a.Params().At(i).Type()) != looseTypeKey(b.Params().At(i).Type()) {
			return false
		}
	}
	for i := 0; i < a.Results().Len(); i++ {
		if looseTypeKey(a.Results().At(i).Type()) != looseTypeKey(b.Results().At(i).Type()) {
			return false
		}
	}
	return true
}

// looseTypeKey renders a type as a structural string in which named types
// appear as path.Name — the cross-universe equality the engine needs.
func looseTypeKey(t types.Type) string {
	return looseKey(t, 0)
}

func looseKey(t types.Type, depth int) string {
	if depth > 8 {
		return "..."
	}
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	case *types.Alias:
		return looseKey(types.Unalias(t), depth)
	case *types.Pointer:
		return "*" + looseKey(t.Elem(), depth+1)
	case *types.Slice:
		return "[]" + looseKey(t.Elem(), depth+1)
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), looseKey(t.Elem(), depth+1))
	case *types.Map:
		return "map[" + looseKey(t.Key(), depth+1) + "]" + looseKey(t.Elem(), depth+1)
	case *types.Chan:
		return "chan " + looseKey(t.Elem(), depth+1)
	case *types.Basic:
		return t.Name()
	case *types.Signature:
		var b strings.Builder
		b.WriteString("func(")
		for i := 0; i < t.Params().Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(looseKey(t.Params().At(i).Type(), depth+1))
		}
		b.WriteByte(')')
		for i := 0; i < t.Results().Len(); i++ {
			b.WriteByte(' ')
			b.WriteString(looseKey(t.Results().At(i).Type(), depth+1))
		}
		return b.String()
	case *types.Interface:
		var names []string
		for i := 0; i < t.NumMethods(); i++ {
			names = append(names, t.Method(i).Name())
		}
		sort.Strings(names)
		return "interface{" + strings.Join(names, ";") + "}"
	case *types.Struct:
		var b strings.Builder
		b.WriteString("struct{")
		for i := 0; i < t.NumFields(); i++ {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(t.Field(i).Name())
			b.WriteByte(' ')
			b.WriteString(looseKey(t.Field(i).Type(), depth+1))
		}
		b.WriteByte('}')
		return b.String()
	case nil:
		return "<nil>"
	default:
		return t.String()
	}
}
