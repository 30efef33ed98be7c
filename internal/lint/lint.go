// Package lint implements unetlint, the repo's determinism lint suite:
// static analyzers that machine-check the invariants behind the simulator's
// byte-identical golden outputs (DESIGN.md §9, §13).
//
// The simulator's headline guarantee — Table 3 and Figures 3/4/7 reproduce
// bit-for-bit at any shard count — rests on rules no Go compiler enforces:
// simulated code must take time only from the virtual clock, randomness
// only from the engine's seeded source, concurrency only through the shard
// runtime's conservative-window protocol, and must never let Go's
// randomized map iteration order reach an event or an output. The
// analyzers in this package check those rules on every build.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// diagnostics, testdata fixtures with // want comments) but is built on the
// standard library alone: packages are loaded via `go list -deps -export`
// and type-checked against the build cache's compiled export data. Since
// PR 8 the suite is interprocedural: a Program (see program.go) indexes
// every function and a conservative cross-package call graph, and
// whole-program analyzers (hotpathalloc, costcharge) run over it instead of
// one package at a time.
//
// # Annotation grammar
//
// Two directives exist:
//
//	//unetlint:allow <analyzer> <reason...>
//	//unetlint:hotpath <reason...>
//
// allow suppresses diagnostics of the named analyzer on its own line, on
// the line directly below it, or — when it appears in (or directly above) a
// function declaration's doc comment — anywhere in that function. A
// directive without a reason, or naming an unknown analyzer, is itself a
// diagnostic: every suppression is forced to document why the invariant
// does not apply. An allow that no longer suppresses anything is stale and
// is itself reported when the full suite runs (Options.Stale).
//
// hotpath marks a function as part of the zero-allocation steady-state
// data path: hotpathalloc proves nothing it can reach allocates.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// An Analyzer is one named invariant check. Run executes once per unit;
// RunProgram executes once over the whole program. An analyzer sets
// exactly one of the two.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// All is the unetlint suite, in reporting order. It is populated in init
// to break the static initialization cycle between the analyzers (whose
// Run closures validate directives against the suite) and the suite list.
var All []*Analyzer

func init() {
	All = []*Analyzer{Nondeterminism, RawGo, MapIter, CostCharge, HotPathAlloc}
}

// Diagnostic is one finding, resolved to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// sink collects diagnostics from concurrently-running passes.
type sink struct {
	mu    sync.Mutex
	diags []Diagnostic
}

func (s *sink) add(d Diagnostic) {
	s.mu.Lock()
	s.diags = append(s.diags, d)
	s.mu.Unlock()
}

// Pass is one analyzer run over one unit.
type Pass struct {
	Analyzer *Analyzer
	Unit     *Unit
	out      *sink
}

// Reportf records a finding at pos unless an allow directive for this
// analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Unit.suppressed(p.Analyzer.Name, pos) {
		return
	}
	p.out.add(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Unit.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass is one whole-program analyzer run.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	out      *sink
}

// Reportf records a finding at pos unless an allow directive in the unit
// owning pos covers it.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	u := p.Prog.UnitAt(pos)
	if u != nil && u.suppressed(p.Analyzer.Name, pos) {
		return
	}
	p.out.add(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //unetlint:allow comment.
type directive struct {
	analyzer string
	file     string
	line     int
	pos      token.Position
	used     bool
}

const directivePrefix = "//unetlint:"

// directiveVerbs are the recognized directives. hotpath is consumed by the
// program builder (program.go); allow is handled here.
var directiveVerbs = map[string]bool{"allow": true, "hotpath": true}

// buildDirectives scans a unit's comments for unetlint directives,
// recording valid ones and reporting malformed ones. It runs once per
// unit; validity is judged against the full suite regardless of which
// analyzers execute.
func (u *Unit) buildDirectives() {
	if u.dirBuilt {
		return
	}
	u.dirBuilt = true
	valid := make(map[string]bool, len(All))
	for _, a := range All {
		valid[a.Name] = true
	}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				verb, args, _ := strings.Cut(rest, " ")
				if !directiveVerbs[verb] {
					u.dirDiags = append(u.dirDiags, Diagnostic{
						Analyzer: "unetlint", Pos: pos,
						Message: fmt.Sprintf("unknown unetlint directive %q (have allow, hotpath)", verb),
					})
					continue
				}
				fields := strings.Fields(args)
				if verb != "allow" {
					// hotpath is resolved against declarations by the program
					// builder; here only demand the reason.
					if len(fields) == 0 {
						u.dirDiags = append(u.dirDiags, Diagnostic{
							Analyzer: "unetlint", Pos: pos,
							Message: fmt.Sprintf("//unetlint:%s needs a reason", verb),
						})
					}
					continue
				}
				if len(fields) == 0 {
					u.dirDiags = append(u.dirDiags, Diagnostic{
						Analyzer: "unetlint", Pos: pos,
						Message: "//unetlint:allow needs an analyzer name and a reason",
					})
					continue
				}
				if !valid[fields[0]] {
					u.dirDiags = append(u.dirDiags, Diagnostic{
						Analyzer: "unetlint", Pos: pos,
						Message: fmt.Sprintf("//unetlint:allow names unknown analyzer %q", fields[0]),
					})
					continue
				}
				if len(fields) < 2 {
					u.dirDiags = append(u.dirDiags, Diagnostic{
						Analyzer: "unetlint", Pos: pos,
						Message: fmt.Sprintf("//unetlint:allow %s is missing its reason", fields[0]),
					})
					continue
				}
				u.directives = append(u.directives, directive{
					analyzer: fields[0],
					file:     pos.Filename,
					line:     pos.Line,
					pos:      pos,
				})
			}
		}
	}
}

// suppressed reports whether an allow directive for analyzer covers pos:
// same line, the line above, or the doc/declaration line of the enclosing
// function. Matching directives are marked used for the stale check.
func (u *Unit) suppressed(analyzer string, pos token.Pos) bool {
	u.dirMu.Lock()
	defer u.dirMu.Unlock()
	u.buildDirectives()
	if len(u.directives) == 0 {
		return false
	}
	position := u.Fset.Position(pos)
	match := func(line int) bool {
		hit := false
		for i := range u.directives {
			d := &u.directives[i]
			if d.analyzer == analyzer && d.file == position.Filename && d.line == line {
				d.used = true
				hit = true
			}
		}
		return hit
	}
	if match(position.Line) || match(position.Line-1) {
		return true
	}
	for _, f := range u.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			declLine := u.Fset.Position(fd.Pos()).Line
			if match(declLine) {
				return true
			}
			if fd.Doc != nil {
				start := u.Fset.Position(fd.Doc.Pos()).Line
				end := u.Fset.Position(fd.Doc.End()).Line
				hit := false
				for l := start; l <= end; l++ {
					if match(l) {
						hit = true
					}
				}
				if hit {
					return true
				}
			}
		}
	}
	return false
}

// staleDirectives returns the allow directives never consulted by a
// suppressed finding. Only meaningful after the full suite ran: an allow
// for an analyzer that did not execute is trivially unused.
func (u *Unit) staleDirectives() []Diagnostic {
	u.dirMu.Lock()
	defer u.dirMu.Unlock()
	var out []Diagnostic
	for i := range u.directives {
		d := &u.directives[i]
		if !d.used {
			out = append(out, Diagnostic{
				Analyzer: "unetlint",
				Pos:      d.pos,
				Message:  fmt.Sprintf("stale //unetlint:allow %s: it no longer suppresses any finding; delete it", d.analyzer),
			})
		}
	}
	return out
}

// Options configure a lint run.
type Options struct {
	// Stale reports allow directives that suppressed nothing. Enable only
	// when every analyzer runs over the whole repository — a subset run
	// leaves other analyzers' allows legitimately unused.
	Stale bool
	// Parallel fans the analyzers out over worker goroutines.
	Parallel bool
}

// RunUnits executes the given analyzers over the units and returns all
// findings (including malformed-directive diagnostics), sorted by position.
func RunUnits(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	return RunUnitsOpts(units, analyzers, Options{})
}

// RunUnitsOpts is RunUnits with explicit Options.
func RunUnitsOpts(units []*Unit, analyzers []*Analyzer, opts Options) []Diagnostic {
	out := &sink{}
	for _, u := range units {
		u.dirMu.Lock()
		u.buildDirectives()
		u.dirMu.Unlock()
		out.diags = append(out.diags, u.dirDiags...)
	}

	needProg := false
	for _, a := range analyzers {
		if a.RunProgram != nil {
			needProg = true
		}
	}
	var prog *Program
	if needProg {
		prog = BuildProgram(units)
		out.diags = append(out.diags, prog.diags...)
	}

	// One task per (per-unit analyzer, unit) pair plus one per
	// whole-program analyzer; diagnostics land in the shared sink and the
	// final sort restores deterministic order regardless of scheduling.
	var tasks []func()
	for _, a := range analyzers {
		a := a
		if a.RunProgram != nil {
			tasks = append(tasks, func() { a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, out: out}) })
			continue
		}
		for _, u := range units {
			u := u
			tasks = append(tasks, func() { a.Run(&Pass{Analyzer: a, Unit: u, out: out}) })
		}
	}
	if opts.Parallel && len(tasks) > 1 {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(tasks) {
			workers = len(tasks)
		}
		ch := make(chan func())
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for task := range ch {
					task()
				}
			}()
		}
		for _, task := range tasks {
			ch <- task
		}
		close(ch)
		wg.Wait()
	} else {
		for _, task := range tasks {
			task()
		}
	}

	if opts.Stale {
		for _, u := range units {
			out.diags = append(out.diags, u.staleDirectives()...)
		}
	}

	diags := out.diags
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// A directive-bearing unit shared between runs would duplicate its
	// directive diagnostics; drop exact duplicates.
	out2 := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out2 = append(out2, d)
	}
	return out2
}
