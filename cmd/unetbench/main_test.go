package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		exit   int
		stdout string // substring the report must contain ("" = must be empty)
		stderr string // substring of the one-line message ("" = must be empty)
	}{
		{"happy path", []string{"-experiment", "table1"}, 0, "(table1 regenerated in", ""},
		{"unknown id after a known one", []string{"-experiment", "table1,bogus"}, 2, "", `unknown experiment "bogus"`},
		{"unknown topology", []string{"-experiment", "clos", "-topo", "bogus"}, 2, "", `unknown topology kind "bogus"`},
		{"no racks", []string{"-experiment", "clos", "-racks", "0"}, 2, "", "0 racks"},
		{"no hosts per rack", []string{"-experiment", "clos", "-perrack", "-1"}, 2, "", "-1 hosts"},
		{"no spines", []string{"-experiment", "clos", "-spine", "0"}, 2, "", "0 spine switches"},
		{"no islands", []string{"-experiment", "gossip", "-islands", "0"}, 2, "", "-islands 0"},
		{"bad load", []string{"-experiment", "serve", "-serveloads", "1000,fast"}, 2, "", `bad -serveloads entry "fast"`},
		{"removed -sync flag", []string{"-experiment", "table1", "-sync", "barrier"}, 2, "", "flag provided but not defined: -sync"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Errorf("exit status %d, want %d", got, tc.exit)
			}
			if tc.stdout == "" && stdout.Len() > 0 {
				t.Errorf("ran something before rejecting the arguments:\n%s", stdout.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.stderr) || (tc.stderr == "") != (msg == "") {
				t.Errorf("stderr %q, want a message containing %q", msg, tc.stderr)
			}
			// Our own rejections are exactly one line; the flag package
			// follows its line with the usage text.
			if strings.HasPrefix(msg, "unetbench: ") && strings.Count(msg, "\n") != 1 {
				t.Errorf("usage error is not one line:\n%s", msg)
			}
		})
	}
}
