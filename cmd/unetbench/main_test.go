package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"unet/internal/experiments"
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
		{"removed -simprof flag", []string{"-experiment", "storm", "-shards", "2", "-simprof"}, 2, "", "flag provided but not defined: -simprof"},
		{"negative shards", []string{"-experiment", "table1", "-shards", "-1"}, 2, "", "-shards -1: "},
		{"negative shards, any", []string{"-experiment", "storm", "-shards", "-4"}, 2, "", "-shards -4: "},
		// Every messenger the point row reaches, each way: the goldens pin
		// only the paper's sizes and paths.
		{"point raw", []string{"-experiment", "point"}, 0, "raw RTT @32B: 68.0 µs\n", ""},
		{"point raw bw", []string{"-experiment", "point", "-bw"}, 0, "raw bandwidth @32B: 2.21 MB/s (200 delivered, 0 dropped)\n", ""},
		{"point fore", []string{"-experiment", "point", "-proto", "fore"}, 0, "fore RTT @32B: 167.8 µs\n", ""},
		{"point fore bw", []string{"-experiment", "point", "-proto", "fore", "-bw"}, 0, "fore bandwidth @32B: 0.81 MB/s (200 delivered, 0 dropped)\n", ""},
		{"point sba100 rtt", []string{"-experiment", "point", "-proto", "sba100"}, 0, "sba100 RTT @32B: 67.8 µs\n", ""},
		{"point sba100", []string{"-experiment", "point", "-proto", "sba100", "-bw"}, 0, "sba100 bandwidth @32B: 2.64 MB/s (200 delivered, 0 dropped)\n", ""},
		{"point uam", []string{"-experiment", "point", "-proto", "uam", "-size", "16"}, 0, "uam RTT @16B: 72.2 µs\n", ""},
		{"point uam bw", []string{"-experiment", "point", "-proto", "uam", "-bw"}, 0, "uam store bandwidth @32B: 1.83 MB/s\n", ""},
		{"point udp unet", []string{"-experiment", "point", "-proto", "udp"}, 0, "udp/U-Net RTT @32B: 170.1 µs\n", ""},
		{"point udp unet bw", []string{"-experiment", "point", "-proto", "udp", "-bw"}, 0, "udp/U-Net bandwidth @32B: sent 1.69 MB/s, received 1.14 MB/s\n", ""},
		{"point udp", []string{"-experiment", "point", "-proto", "udp", "-path", "kernel-atm"}, 0, "udp/kernel/ATM RTT @32B: 747.3 µs\n", ""},
		{"point udp kernel-atm bw", []string{"-experiment", "point", "-proto", "udp", "-path", "kernel-atm", "-bw"}, 0, "udp/kernel/ATM bandwidth @32B: sent 0.38 MB/s, received 0.19 MB/s\n", ""},
		{"point udp kernel-eth", []string{"-experiment", "point", "-proto", "udp", "-path", "kernel-eth"}, 0, "udp/kernel/Ethernet RTT @32B: 765.6 µs\n", ""},
		{"point udp kernel-eth bw", []string{"-experiment", "point", "-proto", "udp", "-path", "kernel-eth", "-bw"}, 0, "udp/kernel/Ethernet bandwidth @32B: sent 0.34 MB/s, received 0.18 MB/s\n", ""},
		{"point tcp unet", []string{"-experiment", "point", "-proto", "tcp"}, 0, "tcp/U-Net RTT @32B: 160.5 µs\n", ""},
		{"point tcp", []string{"-experiment", "point", "-proto", "tcp", "-bw", "-window", "8192", "-size", "8192"}, 0, "tcp/U-Net bandwidth (window 8192, 8192B writes): 14.68 MB/s\n", ""},
		{"point tcp kernel-atm", []string{"-experiment", "point", "-proto", "tcp", "-path", "kernel-atm"}, 0, "tcp/kernel/ATM RTT @32B: 828.0 µs\n", ""},
		{"point tcp kernel-atm bw", []string{"-experiment", "point", "-proto", "tcp", "-path", "kernel-atm", "-bw"}, 0, "tcp/kernel/ATM bandwidth (window 8192, 32B writes): 0.04 MB/s\n", ""},
		{"point tcp kernel-eth", []string{"-experiment", "point", "-proto", "tcp", "-path", "kernel-eth"}, 0, "tcp/kernel/Ethernet RTT @32B: 864.7 µs\n", ""},
		{"point tcp kernel-eth bw", []string{"-experiment", "point", "-proto", "tcp", "-path", "kernel-eth", "-bw"}, 0, "tcp/kernel/Ethernet bandwidth (window 8192, 32B writes): 1.14 MB/s\n", ""},
		{"bad proto", []string{"-experiment", "table1,point", "-proto", "bogus"}, 2, "", `-proto "bogus": have raw fore`},
		{"bad path", []string{"-experiment", "point", "-proto", "udp", "-path", "kernel"}, 2, "", `-path "kernel": have unet kernel-atm`},
		{"one host", []string{"-experiment", "storm", "-hosts", "1"}, 2, "", "-hosts 1: a storm needs at least 2"},
		{"one-host ring", []string{"-experiment", "clos", "-topo", "ring", "-racks", "1", "-perrack", "1"}, 2, "", "-topo ring -racks 1 -perrack 1: 1 host, a storm needs at least 2"},
		{"one-host island", []string{"-experiment", "clos", "-topo", "island", "-racks", "1", "-perrack", "1"}, 2, "", "-topo island -racks 1 -perrack 1: 1 host"},
		{"one-host clos2", []string{"-experiment", "clos", "-topo", "clos2", "-racks", "1", "-perrack", "1", "-spine", "1"}, 2, "", "-topo clos2 -racks 1 -perrack 1: 1 host"},
		{"one round", []string{"-experiment", "fig6", "-rounds", "1"}, 2, "", "-rounds 1: need at least 2"},
		{"count below figloss's quarter", []string{"-experiment", "figloss", "-count", "3"}, 2, "", "-count 3: need at least 4"},
		{"negative size", []string{"-experiment", "point", "-size", "-5"}, 2, "", "-size -5: -proto raw carries 0 to 65535 bytes"},
		{"size past the AAL5 PDU", []string{"-experiment", "point", "-size", "100000"}, 2, "", "-size 100000: -proto raw carries 0 to 65535 bytes"},
		{"size past a UAM request", []string{"-experiment", "point", "-proto", "uam", "-size", "5000"}, 2, "", "-size 5000: -proto uam carries 0 to 4160 bytes"},
		{"size past an Ethernet datagram", []string{"-experiment", "point", "-proto", "udp", "-path", "kernel-eth", "-size", "1473"}, 2, "", "-size 1473: -proto udp carries 0 to 1472 bytes"},
		{"empty TCP write", []string{"-experiment", "point", "-proto", "tcp", "-bw", "-size", "0"}, 2, "", "-size 0: -proto tcp carries 1 to 2097152 bytes"},
		{"all leaves the on-demand row out", []string{"-experiment", "all", "-h"}, 0, "", "all is table1,table2,table3,fig3,fig4,fig5,fig6,fig7,fig8,fig9,ablations,figloss,chaos,storm,serve,clos,gossip ("},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(experiments.All, tc.args, &stdout, &stderr); got != tc.exit {
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

// usageIDs returns the experiment ids the usage text of table lists.
func usageIDs(t *testing.T, table []experiments.Experiment) []string {
	var stdout, stderr bytes.Buffer
	if got := run(table, []string{"-h"}, &stdout, &stderr); got != 0 || stdout.Len() > 0 {
		t.Fatalf("-h: exit status %d, stdout %q", got, stdout.String())
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if list, ok := strings.CutPrefix(line, "experiments: "); ok {
			return strings.Fields(list)
		}
	}
	t.Fatalf("usage text has no experiments line:\n%s", stderr.String())
	return nil
}

// TestUsageListsTheTable pins the ids to one list: the usage text names
// exactly the rows of experiments.All, and a row added to a copy of the
// table is listed, selectable and part of `all` with no other edit.
func TestUsageListsTheTable(t *testing.T) {
	var ids []string
	for _, e := range experiments.All {
		ids = append(ids, e.ID)
	}
	if got := usageIDs(t, experiments.All); !slices.Equal(got, ids) {
		t.Errorf("usage lists %v, experiments.All has %v", got, ids)
	}

	calls := 0
	table := append(slices.Clone(experiments.All[:1]), experiments.Experiment{ID: "throwaway", Run: func(experiments.Options) (string, string) {
		calls++
		return "report\n", "diag\n"
	}})
	if got := usageIDs(t, table); !slices.Equal(got, []string{ids[0], "throwaway"}) {
		t.Errorf("usage of the extended table lists %v", got)
	}
	for _, args := range [][]string{nil, {"-experiment", "throwaway"}} {
		var stdout, stderr bytes.Buffer
		if got := run(table, args, &stdout, &stderr); got != 0 || stderr.Len() > 0 {
			t.Errorf("%v: exit status %d, stderr %q", args, got, stderr.String())
		}
		if !strings.Contains(stdout.String(), "report\ndiag\n(throwaway regenerated in") {
			t.Errorf("%v: the added row's output is missing:\n%s", args, stdout.String())
		}
	}
	if calls != 2 {
		t.Errorf("the added row ran %d times, want 2", calls)
	}
}

// forFencedLines calls f with every line, trimmed, inside a fenced block of
// README.md and EXPERIMENTS.md, and its 1-based line number.
func forFencedLines(t *testing.T, f func(doc string, n int, line string)) {
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(text), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			} else if fenced {
				f(doc, n+1, line)
			}
		}
	}
}

// TestDocumentedCommandsParse runs every `go run ./cmd/unetbench` line in
// the fenced blocks of README.md and EXPERIMENTS.md over a copy of the table
// whose rows return at once: each must exit 0, so a stale flag or id in the
// docs fails here.
func TestDocumentedCommandsParse(t *testing.T) {
	defer func(shards, parallel int) { experiments.Shards, experiments.MaxParallel = shards, parallel }(experiments.Shards, experiments.MaxParallel)
	table := slices.Clone(experiments.All)
	for i := range table {
		table[i].Run = func(experiments.Options) (string, string) { return "", "" }
	}
	lines := 0
	forFencedLines(t, func(doc string, n int, line string) {
		cmd, ok := strings.CutPrefix(line, "go run ./cmd/unetbench")
		if !ok {
			return
		}
		cmd, _, _ = strings.Cut(cmd, "#")
		lines++
		var stderr bytes.Buffer
		if got := run(table, strings.Fields(cmd), io.Discard, &stderr); got != 0 {
			msg, _, _ := strings.Cut(stderr.String(), "\n")
			t.Errorf("%s:%d: %q exits %d: %s", doc, n, line, got, msg)
		}
	})
	if lines == 0 {
		t.Fatal("no documented unetbench command found")
	}
}

// TestDocumentedMakeTargetsExist: every `make` line in the fenced blocks of
// README.md and EXPERIMENTS.md names targets the Makefile defines, so a
// renamed or deleted target fails here.
func TestDocumentedMakeTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9_-]*):([^=]|$)`).FindAllStringSubmatch(string(mk), -1) {
		defined[m[1]] = true
	}
	lines := 0
	forFencedLines(t, func(doc string, n int, line string) {
		args, ok := strings.CutPrefix(line, "make ")
		if !ok {
			return
		}
		args, _, _ = strings.Cut(args, "#")
		lines++
		for _, target := range strings.Fields(args) {
			if !strings.Contains(target, "=") && !defined[target] {
				t.Errorf("%s:%d: %q: the Makefile defines no target %q", doc, n, line, target)
			}
		}
	})
	if lines == 0 {
		t.Fatal("no documented make command found")
	}
}
