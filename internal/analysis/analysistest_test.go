package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestTreeObeysRules runs every rule over this repository, in the files
// each holds in. A finding names its file, line, column and rule.
func TestTreeObeysRules(t *testing.T) {
	findings, err := Check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// The fixture tests mirror x/tools' analysistest: each rule has a
// package under testdata/src/<rule>/ whose sources mark every expected
// finding with a trailing `// want "regexp"` comment (several patterns
// when several findings land on one line). The harness runs the rule
// on every file, whatever its scope, and fails on any unexpected or
// missing finding, so the fixtures double as executable documentation
// of what each rule does and does not flag.

func TestDeterminismFixture(t *testing.T)  { runFixture(t, determinism) }
func TestStoreKeysFixture(t *testing.T)    { runFixture(t, storeKeys) }
func TestBoundedRetryFixture(t *testing.T) { runFixture(t, boundedRetry) }

func runFixture(t *testing.T, r *rule) {
	t.Helper()
	srcs, err := parseTree(filepath.Join("testdata", "src", r.name), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []Finding
	for _, s := range srcs {
		got = append(got, r.run(s)...)
	}
	expect(t, srcs, got)
}

// TestScopeFixture proves both sides of every rule's scope on a
// miniature module tree (testdata/scope, module path iorchestra) through
// Check, which asks each rule's scope. Determinism: a simulation package
// no list names and the commands are flagged, while the wall-clock
// bridges and the experiments' clock.go read the wall clock freely.
// Storekeys: internal/store and internal/core/keys.go spell the schema,
// the rest of internal/core may not. BoundedRetry fires everywhere
// except internal/analysis. The out-of-scope twins of each violation
// carry no want comments, so any finding from them fails the test.
func TestScopeFixture(t *testing.T) {
	dir := filepath.Join("testdata", "scope")
	srcs, err := parseTree(dir, "iorchestra")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, s := range srcs {
		pkgs = append(pkgs, s.pkg)
	}
	for _, p := range []string{
		"iorchestra/internal/core", "iorchestra/internal/netstore",
		"iorchestra/internal/analysis", "iorchestra/internal/pagecache",
		"iorchestra/internal/experiments", "iorchestra/internal/store",
		"iorchestra/cmd/iorchestra-stored", "iorchestra/cmd/iorchestra-sim",
		"iorchestra/bench",
	} {
		if !slices.Contains(pkgs, p) {
			t.Fatalf("scope fixture has no file in %s; got %v", p, pkgs)
		}
	}
	got, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	expect(t, srcs, got)
}

// TestCheckReadsEveryFile pins what Check parses: test files, both
// halves of a build-tag pair, and subdirectories, but not testdata or
// directories the go tool ignores. It also pins how a selector's base
// resolves to a package: by alias, or by the path's last element with a
// major-version suffix stepped over.
func TestCheckReadsEveryFile(t *testing.T) {
	root := t.TempDir()
	wallClock := "package m\n\nimport \"time\"\n\nvar _ = time.Now()\n"
	for name, src := range map[string]string{
		"go.mod":             "module example.com/m\n",
		"alias.go":           "package m\n\nimport clock \"time\"\n\nvar _ = clock.Now()\n",
		"v2.go":              "package m\n\nimport \"math/rand/v2\"\n\nvar _ = rand.IntN(3)\n",
		"blank.go":           "package m\n\nimport _ \"time\"\n",
		"race.go":            "//go:build race\n\n" + wallClock,
		"norace.go":          "//go:build !race\n\n" + wallClock,
		"m_test.go":          "package m_test\n\nimport \"time\"\n\nfunc f() { time.Sleep(0) }\n",
		"sub/keys.go":        "package sub\n\nconst k = \"/cluster/x\"\n",
		"testdata/skip.go":   wallClock,
		"_skip/skip.go":      wallClock,
		".hidden/skip.go":    wallClock,
		"sub/_skip.go":       wallClock,
		"sub/notes.txt":      "time.Now()\n",
		"sub/retry/retry.go": "package retry\n\nfunc f(ok func() bool) {\n\tfor {\n\t\tif !ok() {\n\t\t\tcontinue\n\t\t}\n\t\treturn\n\t}\n}\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d [%s]", f.Pos.Filename, f.Pos.Line, f.Rule))
	}
	want := []string{
		"alias.go:5 [determinism]",
		"m_test.go:5 [determinism]",
		"norace.go:7 [determinism]",
		"race.go:7 [determinism]",
		"sub/keys.go:3 [storekeys]",
		"sub/retry/retry.go:4 [boundedretry]",
		"v2.go:5 [determinism]",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestCheckParseErrorIsLoud pins the failure mode for a file that does
// not parse: an error naming the file, never a tree the rules silently
// checked without it.
func TestCheckParseErrorIsLoud(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":  "module example.com/m\n",
		"good.go": "package m\n",
		"bad.go":  "package m\n\nfunc {\n",
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := Check(root)
	if err == nil || !strings.Contains(err.Error(), "bad.go:3") {
		t.Fatalf("Check on a file that does not parse: %v, %v; want an error naming bad.go:3", findings, err)
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

// expect fails t on every finding no want comment of srcs claims and on
// every want comment no finding hits.
func expect(t *testing.T, srcs []*source, got []Finding) {
	t.Helper()
	wants := collectWants(t, srcs)
	for _, f := range got {
		if !claim(wants, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.src)
		}
	}
}

// claim marks the first unclaimed expectation on the finding's line that
// matches its message.
func claim(wants []*want, f Finding) bool {
	for _, w := range wants {
		if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

// wantPattern extracts the quoted expectations after a "// want" marker:
// double-quoted Go strings or backquoted raw strings, each a regexp.
var wantPattern = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, srcs []*source) []*want {
	t.Helper()
	var wants []*want
	for _, s := range srcs {
		for _, cg := range s.file.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := s.fset.Position(c.Pos())
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
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, src: src})
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
