package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture tests mirror x/tools' analysistest: each pass has a
// package under testdata/src/<pass>/ whose sources mark every expected
// finding with a trailing `// want "regexp"` comment (several patterns
// when several findings land on one line). The harness runs the pass
// with scope gating disabled and fails on any unexpected or missing
// diagnostic, so the fixtures double as executable documentation of
// what each rule does and does not flag.

func TestDeterminismFixture(t *testing.T)  { runFixture(t, Determinism, "determinism") }
func TestStoreKeysFixture(t *testing.T)    { runFixture(t, StoreKeys, "storekeys") }
func TestHotPathAllocFixture(t *testing.T) { runFixture(t, HotPathAlloc, "hotpathalloc") }
func TestBoundedRetryFixture(t *testing.T) { runFixture(t, BoundedRetry, "boundedretry") }

// TestScopeFixture proves both sides of every scope-gated pass on a
// miniature module tree (testdata/scope, module path iorchestra), with
// scoping ENABLED — the opposite of runFixture. Determinism:
// sim packages and commands are flagged while nonSimScope's wire-facing
// packages use the wall clock freely. HotPathAlloc fires only under
// internal/, and BoundedRetry everywhere except internal/analysis. The
// out-of-scope twins of each violation carry no want comments, so any
// diagnostic from them fails the test.
func TestScopeFixture(t *testing.T) {
	dir := filepath.Join("testdata", "scope")
	pkgs, err := Load(dir + "/...")
	if err != nil {
		t.Fatalf("loading scope fixture: %v", err)
	}
	var wants []*want
	flagged := map[string]bool{}
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
		flagged[pkg.Path] = false
	}
	for _, p := range []string{
		"iorchestra/internal/core", "iorchestra/internal/netstore",
		"iorchestra/internal/analysis",
		"iorchestra/cmd/iorchestra-stored", "iorchestra/cmd/iorchestra-vet",
	} {
		if _, ok := flagged[p]; !ok {
			t.Fatalf("scope fixture did not load %s; got %v", p, flagged)
		}
	}
	scoped := []*Analyzer{Determinism, HotPathAlloc, BoundedRetry}
	diags, err := RunAnalyzers(pkgs, scoped, false)
	if err != nil {
		t.Fatalf("running scoped passes on scope fixture: %v", err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic (scope gate leaked): %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.src)
		}
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	src  string
	hit  bool
}

func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a}, true)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.src)
		}
	}
}

// claim marks the first unclaimed expectation on the diagnostic's line
// that matches its message.
func claim(wants []*want, d Diagnostic) bool {
	base := filepath.Base(d.Pos.Filename)
	for _, w := range wants {
		if !w.hit && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// wantPattern extracts the quoted expectations after a "// want" marker:
// double-quoted Go strings or backquoted raw strings, each a regexp.
var wantPattern = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantPattern.FindAllString(rest, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range matches {
					src, err := unquote(m)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, m, err)
					}
					re, err := regexp.Compile(src)
					if err != nil {
						t.Fatalf("%s:%d: want pattern %q does not compile: %v", pos.Filename, pos.Line, src, err)
					}
					wants = append(wants, &want{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
						src:  src,
					})
				}
			}
		}
	}
	return wants
}

func unquote(s string) (string, error) {
	if strings.HasPrefix(s, "`") {
		if len(s) < 2 || !strings.HasSuffix(s, "`") {
			return "", fmt.Errorf("unterminated raw string")
		}
		return s[1 : len(s)-1], nil
	}
	return strconv.Unquote(s)
}
