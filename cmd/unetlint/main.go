// Command unetlint is the multichecker for the repo's determinism lint
// suite (internal/lint): it type-checks the requested packages — test
// files included — and runs every analyzer that machine-checks the
// simulator's reproducibility invariants (DESIGN.md §9, §13).
//
// Usage:
//
//	unetlint [-only nondeterminism,rawgo] [-stale] [-json] [packages]
//
// Packages default to ./... . The exit status is 1 when any finding is
// reported, so `make lint` (and CI) fail on a new violation; intentional
// exceptions are annotated in source with //unetlint:allow <analyzer>
// <reason>.
//
// -stale additionally reports every //unetlint:allow that no longer
// suppresses anything (only meaningful when the full suite runs — a -only
// subset leaves other analyzers' allows legitimately unused, so -stale
// with -only is rejected). -json renders findings as a JSON array on
// stdout for CI artifacts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"unet/internal/lint"
)

// jsonDiag is the CI artifact schema for one finding.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs named: findings go to stdout,
// and the exit status is 1 when there are any, 2 for a usage error (one
// line on stderr) or a package that does not load (go list's own words).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list the analyzers and exit")
	stale := fs.Bool("stale", false, "also report //unetlint:allow directives that suppress nothing (full suite only)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout")
	serial := fs.Bool("serial", false, "run analyzers one at a time instead of in parallel")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has already said why
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "unetlint: "+format+"\n", a...)
		return 2
	}

	if *list {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *only != "" {
		if *stale {
			return fail("-stale needs the full suite; drop -only")
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			i := slices.IndexFunc(lint.All, func(a *lint.Analyzer) bool { return a.Name == strings.TrimSpace(name) })
			if i < 0 {
				return fail("unknown analyzer %q", name)
			}
			analyzers = append(analyzers, lint.All[i])
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := lint.Load(".", patterns...)
	if err != nil {
		return fail("%v", err)
	}
	diags := lint.RunUnitsOpts(units, analyzers, lint.Options{
		Stale:    *stale,
		Parallel: !*serial,
	})
	cwd, _ := os.Getwd()
	relativize := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				return rel
			}
		}
		return name
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				Analyzer: d.Analyzer,
				File:     relativize(d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail("%v", err)
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relativize(d.Pos.Filename)
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "unetlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
