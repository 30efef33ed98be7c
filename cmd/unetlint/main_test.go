package main

import (
	"bytes"
	"strings"
	"testing"

	"unet/internal/lint"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		exit   int
		stderr string // substring of the one-line message ("" = must be empty)
	}{
		{"list", []string{"-list"}, 0, ""},
		{"unknown analyzer", []string{"-only", "nondeterminism,bogus"}, 2, `unknown analyzer "bogus"`},
		{"stale with a subset", []string{"-only", "rawgo", "-stale"}, 2, "-stale needs the full suite"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Errorf("exit status %d, want %d", got, tc.exit)
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.stderr) || (tc.stderr == "") != (msg == "") {
				t.Errorf("stderr %q, want a message containing %q", msg, tc.stderr)
			}
			if tc.exit == 2 && (stdout.Len() > 0 || strings.Count(msg, "\n") != 1) {
				t.Errorf("a usage error is one line on stderr and nothing on stdout; got %q and %q", msg, stdout.String())
			}
			if tc.name != "list" {
				return
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if len(lines) != 5 || len(lines) != len(lint.All) {
				t.Fatalf("-list printed %d lines for %d analyzers, want the five:\n%s", len(lines), len(lint.All), stdout.String())
			}
			for i, a := range lint.All {
				if !strings.HasPrefix(lines[i], a.Name+" ") {
					t.Errorf("-list line %d is %q, want analyzer %s", i, lines[i], a.Name)
				}
			}
		})
	}
}
