package lint_test

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"unet/internal/lint"
)

// runFixture is a minimal analysistest: it loads testdata/src/<name>,
// runs one analyzer, and checks the reported diagnostics against the
// fixture's expectation comments. `// want "re" …` expects diagnostics on
// its own line; `// want-prev "re" …` expects them on the line above (for
// lines that cannot carry a trailing comment, such as malformed unetlint
// directives, which run to end of line). Regexes may be double- or
// back-quoted; every want must be matched and every diagnostic wanted.
func runFixture(t *testing.T, a *lint.Analyzer, name string) {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	units, err := lint.LoadFixture(root)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", root, err)
	}
	if len(units) == 0 {
		t.Fatalf("fixture %s is empty", root)
	}
	diags := lint.RunUnits(units, []*lint.Analyzer{a})
	checkWants(t, a, units, diags)
}

// runModuleFixture loads a real module under testdata (needed when the
// fixture's packages import each other, or when the analyzer shells out to
// the go tool — plain fixture trees support neither) and checks one
// analyzer's diagnostics against its want comments.
func runModuleFixture(t *testing.T, a *lint.Analyzer, name string) {
	t.Helper()
	root := filepath.Join("testdata", name)
	units, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module fixture %s: %v", root, err)
	}
	if len(units) == 0 {
		t.Fatalf("module fixture %s is empty", root)
	}
	diags := lint.RunUnits(units, []*lint.Analyzer{a})
	checkWants(t, a, units, diags)
}

// checkWants matches reported diagnostics against the fixtures'
// expectation comments.
func checkWants(t *testing.T, a *lint.Analyzer, units []*lint.Unit, diags []lint.Diagnostic) {
	t.Helper()
	type loc struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[loc][]*want)
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					res, prev, ok := parseWants(t, c.Text)
					if !ok {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					l := loc{pos.Filename, pos.Line}
					if prev {
						l.line--
					}
					for _, re := range res {
						wants[l] = append(wants[l], &want{re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		l := loc{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[l] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for l, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no %s diagnostic matching %q", l.file, l.line, a.Name, w.re)
			}
		}
	}
}

var wantQuoted = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// parseWants extracts the expectation regexes from a comment, reporting
// whether they apply to the previous line.
func parseWants(t *testing.T, text string) (res []*regexp.Regexp, prev bool, ok bool) {
	t.Helper()
	var rest string
	if i := strings.Index(text, "// want-prev "); i >= 0 {
		rest, prev = text[i+len("// want-prev "):], true
	} else if i := strings.Index(text, "// want "); i >= 0 {
		rest = text[i+len("// want "):]
	} else {
		return nil, false, false
	}
	for _, q := range wantQuoted.FindAllString(rest, -1) {
		pat := q[1 : len(q)-1]
		if q[0] == '"' {
			var err error
			pat, err = strconv.Unquote(q)
			if err != nil {
				t.Fatalf("bad want pattern %s: %v", q, err)
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("bad want regexp %q: %v", pat, err)
		}
		res = append(res, re)
	}
	if len(res) == 0 {
		t.Fatalf("want comment with no patterns: %s", text)
	}
	return res, prev, true
}

func TestNondeterminismFixtures(t *testing.T) { runFixture(t, lint.Nondeterminism, "nondeterminism") }

func TestRawGoFixtures(t *testing.T) { runFixture(t, lint.RawGo, "rawgo") }

func TestMapIterFixtures(t *testing.T) { runFixture(t, lint.MapIter, "mapiter") }

func TestCostChargeFixtures(t *testing.T) { runFixture(t, lint.CostCharge, "costcharge") }

func TestHotPathAllocFixtures(t *testing.T) { runModuleFixture(t, lint.HotPathAlloc, "mod_hotpath") }

// TestStaleAllows checks that an allow which suppresses a real finding is
// silent while one that suppresses nothing is reported stale.
func TestStaleAllows(t *testing.T) {
	units, err := lint.LoadFixture(filepath.Join("testdata", "src", "stale"))
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunUnitsOpts(units, lint.All, lint.Options{Stale: true})
	var stale []string
	for _, d := range diags {
		if !strings.Contains(d.Message, "stale //unetlint:allow") {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		stale = append(stale, d.Message)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "mapiter") {
		t.Errorf("want exactly one stale mapiter allow, got %q", stale)
	}
}
