// Command unetlint is the multichecker for the repo's determinism lint
// suite (internal/lint): it type-checks the requested packages — test
// files included — and runs every analyzer that machine-checks the
// simulator's reproducibility invariants (DESIGN.md §9, §13).
//
// Usage:
//
//	unetlint [-only nondeterminism,rawgo] [-stale] [packages]
//
// Packages default to ./... . The exit status is 1 when any finding is
// reported, so `make lint` (and CI) fail on a new violation; intentional
// exceptions are annotated in source with //unetlint:allow <analyzer>
// <reason>.
//
// -stale additionally reports every //unetlint:allow that no longer
// suppresses anything (only meaningful when the full suite runs — a -only
// subset leaves other analyzers' allows legitimately unused, so -stale
// with -only is rejected).
package main

import (
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
	diags := lint.RunUnitsOpts(units, analyzers, lint.Options{Stale: *stale, Parallel: true})
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "unetlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
