package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// HotPathAlloc turns the PR 4 zero-allocation contract from a runtime gate
// into a lint-time proof. Functions annotated //unetlint:hotpath — the NIC
// demux, the AAL5 segmenter/reassembler, the UAM send/receive path, the
// timer-wheel insert/cancel — form the steady-state data path that
// TestSteadyStateAllocs measures at 0 allocs/round; but AllocsPerRun only
// convicts allocations on paths the test happens to exercise, and only
// after the code has shipped far enough to run. This analyzer reports the
// violation at the allocation site instead: it compiles the module with
// -gcflags=-m, maps every "escapes to heap"/"moved to heap" site onto the
// program's function index, and walks the call graph from each hotpath
// root, reporting every reachable heap allocation.
//
// Soundness boundaries, by construction:
//
//   - Allocations that only feed panic are ignored: a panicking simulator
//     has no steady state to protect.
//   - Calls through plain function values resolve to no callee; each such
//     site inside hot-path reach is reported as a hole in the proof (the
//     AtArg callback idiom — a static top-level function passed with its
//     argument — stays resolvable and is the sanctioned escape hatch).
//   - Interface calls fan out to every loosely-implementing method
//     (class-hierarchy analysis), which can over-approximate but never
//     misses a source-declared implementor.
//   - Intentional cold-path allocations inside hot functions (pool/arena
//     growth, teardown errors) carry //unetlint:allow hotpathalloc
//     annotations naming why the steady state never takes them.
//   - Escape data comes from the compiler itself, so append growth and
//     interface boxing the AST cannot see are still only visible when the
//     compiler reports an escape; stack-growth reallocation is invisible to
//     both and remains the runtime gate's job.
//
// Without a go.mod at the load root (plain fixture trees) no escape facts
// exist and only dynamic-call holes are reported.
var HotPathAlloc = &Analyzer{
	Name:       "hotpathalloc",
	Doc:        "prove functions annotated //unetlint:hotpath reach no heap allocation (escape analysis over the call graph)",
	RunProgram: runHotPathAlloc,
}

// allocSite is one compiler-reported heap allocation mapped into the
// function index.
type allocSite struct {
	pos token.Pos
	msg string
}

func runHotPathAlloc(pass *ProgramPass) {
	prog := pass.Prog
	if len(prog.HotPath) == 0 {
		return
	}
	allocs := escapeFacts(pass)

	// Roots in deterministic order.
	roots := make([]string, 0, len(prog.HotPath))
	for id := range prog.HotPath {
		roots = append(roots, id)
	}
	sort.Strings(roots)

	for _, rootID := range roots {
		root := prog.Nodes[rootID]
		if root == nil {
			continue
		}
		// BFS from the root; via[] remembers the first caller that reached
		// each node so findings can name the chain's head.
		seen := map[string]bool{rootID: true}
		queue := []*FuncNode{root}
		via := map[string]string{}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, site := range allocs[n.ID] {
				detail := ""
				if n.ID != rootID {
					detail = fmt.Sprintf(" (reached via %s)", chainString(via, n.ID, rootID))
				}
				pass.Reportf(site.pos, "heap allocation on the //unetlint:hotpath path rooted at %s: %s%s",
					shortName(root), site.msg, detail)
			}
			for _, dyn := range n.Dyn {
				pass.Reportf(dyn, "call through a function value inside the //unetlint:hotpath path rooted at %s: the allocation proof cannot follow it",
					shortName(root))
			}
			for _, e := range n.Calls {
				callee := prog.Nodes[e.CalleeID]
				if callee == nil || seen[e.CalleeID] || callee.InTestFile {
					continue
				}
				seen[e.CalleeID] = true
				via[e.CalleeID] = n.ID
				queue = append(queue, callee)
			}
		}
	}
}

func shortName(n *FuncNode) string {
	if n.Fn != nil {
		name := n.Fn.FullName()
		// Trim the module prefix for readability: (*unet/internal/nic.Device).x
		// → (*nic.Device).x
		name = strings.ReplaceAll(name, "unet/internal/", "")
		return name
	}
	return n.ID
}

// chainString renders root → … → id as the two ends plus hop count.
func chainString(via map[string]string, id, rootID string) string {
	hops := 0
	first := id
	for cur := id; cur != rootID && hops < 32; hops++ {
		first = cur
		cur = via[cur]
		if cur == "" {
			break
		}
	}
	if hops <= 1 {
		return "a direct call"
	}
	return fmt.Sprintf("%d calls through %s", hops, strings.ReplaceAll(first, "unet/internal/", ""))
}

// escapeMu serializes the go-build shell-out: several concurrent lint runs
// (tests) would otherwise race on the build cache for no benefit.
var escapeMu sync.Mutex

// escapeCache memoizes parsed escape facts per load directory within one
// process: the multichecker and the repo-clean test share one extraction.
var escapeCache = map[string]map[string][]allocSite{}

// escapeFacts compiles the module at the program's load root with
// -gcflags=-m and maps each reported escape site to its enclosing function
// node. The go build cache replays compiler diagnostics, so repeat runs
// cost a cache probe, not a compile.
func escapeFacts(pass *ProgramPass) map[string][]allocSite {
	prog := pass.Prog
	if prog.Dir == "" {
		return nil
	}
	// The load directory may be anywhere inside the module; the compiler
	// must run at the module root, and its diagnostics are relative to it.
	modDir, modPath, err := goModule(prog.Dir)
	if err != nil || modDir == "" {
		return nil // fixture tree without a module: no escape facts
	}
	escapeMu.Lock()
	defer escapeMu.Unlock()
	if facts, ok := escapeCache[modDir]; ok {
		return facts
	}

	cmd := exec.Command("go", "build", "-gcflags="+modPath+"/...=-m", "./...")
	cmd.Dir = modDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		pass.Reportf(token.NoPos, "hotpathalloc: go build -gcflags=-m failed: %v\n%s", err, stderr.String())
		return nil
	}

	// said is every allocation message the compiler printed inside each
	// function, panic-only ones included.
	type site struct {
		node *FuncNode
		allocSite
	}
	var sites []site
	said := make(map[string]map[string]bool)
	for _, line := range strings.Split(stderr.String(), "\n") {
		msg, kind := escapeMessage(line)
		if kind == "" {
			continue
		}
		file, lineNo, col, ok := splitPosPrefix(line)
		if !ok {
			continue
		}
		pos, node := prog.resolvePos(filepath.Join(modDir, file), lineNo, col)
		if node == nil {
			continue // package-scope initialization
		}
		if said[node.ID] == nil {
			said[node.ID] = make(map[string]bool)
		}
		said[node.ID][msg] = true
		sites = append(sites, site{node, allocSite{pos: pos, msg: msg}})
	}
	facts := make(map[string][]allocSite)
	for _, s := range sites {
		if allocFeedsPanic(s.node, s.pos) || inlinedCopy(s.node, s.pos, s.msg, said) {
			continue
		}
		facts[s.node.ID] = append(facts[s.node.ID], s.allocSite)
	}
	escapeCache[modDir] = facts
	return facts
}

// goModule reads the root directory and path of the module containing dir
// via the go tool ("", "", nil outside any module).
func goModule(dir string) (modDir, modPath string, err error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}\t{{.Path}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", "", err
	}
	modDir, modPath, _ = strings.Cut(strings.TrimSpace(string(out)), "\t")
	return modDir, modPath, nil
}

// escapeMessage classifies one -m line, returning a human message for
// allocation reports ("" when the line is not an allocation).
func escapeMessage(line string) (msg, kind string) {
	switch {
	case strings.HasSuffix(line, " escapes to heap"):
		i := strings.Index(line, ": ")
		if i < 0 {
			return "", ""
		}
		return strings.TrimSpace(line[i+2:]), "escape"
	case strings.Contains(line, "moved to heap: "):
		i := strings.Index(line, "moved to heap: ")
		return "moved to heap: " + line[i+len("moved to heap: "):], "moved"
	}
	return "", ""
}

// splitPosPrefix parses the file:line:col: prefix of a compiler
// diagnostic.
func splitPosPrefix(line string) (file string, lineNo, col int, ok bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) < 4 {
		return "", 0, 0, false
	}
	if _, err := fmt.Sscanf(parts[1]+" "+parts[2], "%d %d", &lineNo, &col); err != nil {
		return "", 0, 0, false
	}
	return parts[0], lineNo, col, true
}

// resolvePos converts an absolute file path plus line/column to a
// token.Pos and the function of the program it lies in (nil at package
// scope). The file set can hold the name twice: importing a package's
// export data registers a stub under the source's name, with only as many
// (empty) lines as the last declaration it exports, and a stub registered
// before the source is parsed comes first. So every entry is tried, and only
// the parsed source — the one whose positions lie in a function — answers.
func (p *Program) resolvePos(absFile string, line, col int) (pos token.Pos, node *FuncNode) {
	p.Fset.Iterate(func(tf *token.File) bool {
		if tf.Name() != absFile || line > tf.LineCount() {
			return true
		}
		pos = tf.LineStart(line) + token.Pos(col-1)
		node = p.NodeAt(pos)
		return node == nil
	})
	return pos, node
}

// inlinedCopy reports whether the allocation the compiler printed at pos is
// the body of a callee it inlined there: it prints an inlined body's
// diagnostics a second time at the opening parenthesis of the call. The
// walk reaches the callee through the call edge and reports — or, when the
// allocation only feeds a panic or carries an allow, excuses — the
// allocation once, where it is written.
func inlinedCopy(node *FuncNode, pos token.Pos, msg string, said map[string]map[string]bool) bool {
	for _, e := range node.Calls {
		if !e.Iface && e.Call.Lparen == pos && said[e.CalleeID][msg] {
			return true
		}
	}
	return false
}

// allocFeedsPanic reports whether the allocation at pos exists only as an
// argument to panic (a Sprintf feeding panic is not steady-state
// allocation — a panicking simulator is already dead).
func allocFeedsPanic(node *FuncNode, pos token.Pos) bool {
	for _, n := range enclosingPath(node.Body, pos) {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && node.Unit.Info.Uses[id] == types.Universe.Lookup("panic") {
				return true
			}
		}
	}
	return false
}

// enclosingPath returns the chain of nodes from root down to the innermost
// node containing pos.
func enclosingPath(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || pos < c.Pos() || pos >= c.End() {
				return c == n
			}
			if c != n {
				path = append(path, c)
				walk(c)
				return false
			}
			return true
		})
	}
	path = append(path, root)
	walk(root)
	return path
}
