package stats

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesAddAndAt(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(4, 40)
	if y, ok := s.At(2); !ok || y != 20 {
		t.Fatalf("At(2) = %v, %v", y, ok)
	}
	if y, ok := s.At(3.1); !ok || y != 40 {
		t.Fatalf("At(3.1) = %v (nearest should be x=4)", y)
	}
	var empty Series
	if _, ok := empty.At(1); ok {
		t.Fatal("At on empty series reported ok")
	}
}

func TestFigureString(t *testing.T) {
	f := &Figure{Title: "T", XLabel: "x", YLabel: "y"}
	a := &Series{Name: "A"}
	a.Add(1, 1.5)
	a.Add(2, 2.5)
	b := &Series{Name: "B"}
	b.Add(2, 9)
	f.Series = []*Series{a, b}
	out := f.String()
	for _, want := range []string{"== T ==", "A", "B", "1.50", "9.00", "(y: y)"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	// Series B has no point at x=1: rendered as "-".
	line1 := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "1 ") {
			line1 = l
		}
	}
	if !strings.Contains(line1, "-") {
		t.Errorf("missing point not rendered as '-': %q", line1)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo")
	tb.Header("a", "longer")
	tb.Row("xxxxxxx", "1")
	tb.Row("y", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("rows not aligned:\n%s", out)
	}
	if !strings.Contains(lines[2], "--") {
		t.Fatalf("missing header rule:\n%s", out)
	}
}

func TestUS(t *testing.T) {
	if got := US(1500 * time.Nanosecond); got != 1.5 {
		t.Fatalf("US = %v, want 1.5", got)
	}
}
