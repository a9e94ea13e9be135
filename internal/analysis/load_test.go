package analysis

import (
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mapNames is generic on purpose: make lint type-checks this very file
// (the loader always includes _test.go files), so a generics regression
// in the stdlib-only loader fails the lint gate itself, not only these
// tests.
func mapNames[T any](in []T, f func(T) string) []string {
	out := make([]string, 0, len(in))
	for _, v := range in {
		out = append(out, f(v))
	}
	sort.Strings(out)
	return out
}

// TestLoadGenerics loads a fixture package built around type-parameter
// syntax (union constraints, multi-param instantiation) and asserts the
// loader produced a fully typed package.
func TestLoadGenerics(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src", "generics"))
	if err != nil {
		t.Fatalf("Load on the generics fixture: %v", err)
	}
	names := mapNames(pkgs, func(p *Package) string { return p.Path })
	if len(names) != 1 || !strings.HasSuffix(names[0], "generics") {
		t.Fatalf("expected exactly the generics package, got %v", names)
	}
	pkg := pkgs[0]
	used := pkg.Types.Scope().Lookup("Used")
	if used == nil {
		t.Fatal("generics fixture type-checked without exporting Used")
	}
	if len(pkg.Info.Defs) == 0 || len(pkg.Info.Types) == 0 {
		t.Fatal("generics fixture loaded with empty type information")
	}
}

// TestLoadHonoursBuildConstraints loads a fixture that declares one
// constant in two files under opposite constraints (race / !race): the
// loader must pick the file a plain build would, not report a
// redeclaration.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src", "buildtags"))
	if err != nil {
		t.Fatalf("Load on the buildtags fixture: %v", err)
	}
	c, _ := pkgs[0].Types.Scope().Lookup("Tagged").(*types.Const)
	if c == nil || c.Val().String() != "false" {
		t.Fatalf("Tagged = %v, want the !race file's false", c)
	}
}

// TestLoadTypeErrorIsLoud pins the failure mode for code the loader
// cannot type-check: a hard error naming the phase, the package and the
// offending file — never a silently mis-typed package.
func TestLoadTypeErrorIsLoud(t *testing.T) {
	_, err := Load(filepath.Join("testdata", "loaderr"))
	if err == nil {
		t.Fatal("Load succeeded on a deliberately mis-typed package")
	}
	msg := err.Error()
	for _, needle := range []string{"type-checking", "loaderr.go", "forty-two"} {
		if !strings.Contains(msg, needle) {
			t.Errorf("load error %q does not mention %q", msg, needle)
		}
	}
}
