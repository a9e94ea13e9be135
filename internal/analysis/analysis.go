// Package analysis holds the project rules that no type, signature or
// test can carry: determinism, storekeys and boundedretry
// (docs/LINTING.md is the normative reference). Each rule is a check
// over one parsed file and its package path; none needs type
// information. Check runs them over a module, and TestTreeObeysRules
// runs Check over this repository, so `go test ./...` enforces them.
// There is no suppression directive: a finding is fixed, or the rule is
// changed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one rule violation. Its file name is slash-separated and
// relative to the module root.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// rule is one project invariant.
type rule struct {
	name string
	// inScope reports whether the rule holds in a file. Check asks it;
	// the fixture tests run a rule on every file they parse.
	inScope func(s *source) bool
	check   func(s *source, report func(pos token.Pos, format string, args ...any))
}

var rules = []*rule{determinism, storeKeys, boundedRetry}

// run applies r to one file, in scope or not.
func (r *rule) run(s *source) []Finding {
	var out []Finding
	r.check(s, func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{Pos: s.fset.Position(pos), Rule: r.name, Message: fmt.Sprintf(format, args...)})
	})
	return out
}

// source is one parsed file and what the rules need to know about it.
type source struct {
	fset *token.FileSet
	file *ast.File
	pkg  string // import path of the file's directory
	name string // base name
	// imports maps each name the file gives an imported package to that
	// package's path.
	imports map[string]string
}

// importPath returns the path of the package a selector's base names,
// or "" when the base is not an imported package's name. Without type
// information a local variable that shadows an import resolves to the
// import; the tree has none that matters.
func (s *source) importPath(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return s.imports[id.Name]
	}
	return ""
}

// Check parses every Go file of the module rooted at root and returns
// what each rule finds in the files it holds in, ordered by position.
func Check(root string) ([]Finding, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	srcs, err := parseTree(root, mod)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, s := range srcs {
		for _, r := range rules {
			if r.inScope(s) {
				out = append(out, r.run(s)...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		return a.Rule < b.Rule
	})
	return out, nil
}

// modulePath reads the module directive of root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", filepath.Join(root, "go.mod"))
}

// parseTree parses every .go file below root, test files and every
// build-tag variant included. It skips what the go tool skips: testdata,
// and directories and files whose names start with "." or "_". A file
// in directory d belongs to package mod/d. A file that does not parse is
// an error, never a file the rules silently miss.
func parseTree(root, mod string) ([]*source, error) {
	fset := token.NewFileSet()
	var srcs []*source
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := mod
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		srcs = append(srcs, &source{fset: fset, file: f, pkg: pkg, name: name, imports: importNames(f)})
		return nil
	})
	return srcs, err
}

// importNames maps the names a file's imports bind to their paths: the
// alias, or the path's last element with a /vN major-version suffix
// stepped over. Blank and dot imports bind no name.
func importNames(f *ast.File) map[string]string {
	names := make(map[string]string, len(f.Imports))
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		var name string
		if spec.Name != nil {
			name = spec.Name.Name
		} else {
			elems := strings.Split(path, "/")
			name = elems[len(elems)-1]
			if len(elems) > 1 && isMajorVersion(name) {
				name = elems[len(elems)-2]
			}
		}
		if name != "_" && name != "." {
			names[name] = path
		}
	}
	return names
}

// isMajorVersion reports whether a path element is a major-version
// suffix such as v2.
func isMajorVersion(elem string) bool {
	digits, ok := strings.CutPrefix(elem, "v")
	if !ok || digits == "" {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
