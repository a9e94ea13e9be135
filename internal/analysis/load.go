package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path; external test packages get the
	// base path with a "_test" suffix.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load expands go-style package patterns ("./...", "dir", "dir/...") and
// returns each matched package parsed and type-checked, _test.go files
// included: in-package test files are merged into their package,
// external test packages are loaded separately. Resolution is
// toolchain-free: module-internal imports are type-checked from source
// recursively (memoized), standard-library imports go through go/importer's
// source importer. Directories named testdata and hidden directories are
// skipped, exactly as the go tool skips them.
func Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			rec, pat = true, "."
		}
		expanded, err := expandDir(filepath.Clean(pat), rec)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)

	var pkgs []*Package
	loaders := map[string]*moduleLoader{} // module root -> loader
	for _, dir := range dirs {
		modRoot, modPath, err := findModule(dir)
		if err != nil {
			return nil, err
		}
		l := loaders[modRoot]
		if l == nil {
			l = newModuleLoader(modRoot, modPath)
			loaders[modRoot] = l
		}
		loaded, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return pkgs, nil
}

// expandDir lists dir (and recursively its subdirectories) that contain
// at least one .go file.
func expandDir(root string, recursive bool) ([]string, error) {
	if !recursive {
		return []string{root}, nil
	}
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if has {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}

// findModule ascends from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// moduleLoader type-checks packages of one module. Import resolves
// module-internal paths from source (memoized, without test files) and
// delegates everything else to the standard library's source importer.
type moduleLoader struct {
	fset    *token.FileSet
	std     types.Importer
	modRoot string
	modPath string
	memo    map[string]*types.Package
	loading map[string]bool
}

func newModuleLoader(modRoot, modPath string) *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modRoot: modRoot,
		modPath: modPath,
		memo:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer for dependency resolution.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if p := l.memo[path]; p != nil {
		return p, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, _, _, err := l.check(path, filepath.Join(l.modRoot, rel), noTestFiles)
		if err != nil {
			return nil, err
		}
		l.memo[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// importPath maps a directory inside the module to its import path.
func (l *moduleLoader) importPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// File-set selectors for check.
type fileMode int

const (
	noTestFiles    fileMode = iota // package sources only
	withTestFiles                  // sources plus in-package _test.go files
	onlyXTestFiles                 // the external foo_test package
)

// loadDir loads the package in dir for analysis: the primary package
// with its in-package test files and, when present, the external _test
// package.
func (l *moduleLoader) loadDir(dir string) ([]*Package, error) {
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	pkg, files, info, err := l.check(path, dir, withTestFiles)
	if err != nil {
		return nil, err
	}
	out := []*Package{{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: pkg, Info: info}}
	xpkg, xfiles, xinfo, err := l.check(path+"_test", dir, onlyXTestFiles)
	if err != nil {
		return nil, err
	}
	if len(xfiles) > 0 {
		out = append(out, &Package{Path: path + "_test", Dir: dir, Fset: l.fset, Files: xfiles, Types: xpkg, Info: xinfo})
	}
	return out, nil
}

// check parses and type-checks the files of one package in dir.
func (l *moduleLoader) check(path, dir string, mode fileMode) (*types.Package, []*ast.File, *types.Info, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if mode == noTestFiles && strings.HasSuffix(n, "_test.go") {
			continue
		}
		// Honour build constraints as a plain `go build` would: a pair of
		// files under opposite tags (race / !race) is one declaration, not
		// a redeclaration.
		if ok, err := build.Default.MatchFile(dir, n); err == nil && !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			// Syntax the loader cannot parse must fail the load loudly,
			// never silently narrow the package it hands to the passes.
			return nil, nil, nil, fmt.Errorf("parsing %s: %w", filepath.Join(dir, n), err)
		}
		isTest := strings.HasSuffix(n, "_test.go")
		isXTest := isTest && strings.HasSuffix(f.Name.Name, "_test")
		switch mode {
		case withTestFiles:
			if isXTest {
				continue
			}
		case onlyXTestFiles:
			if !isXTest {
				continue
			}
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		if mode == onlyXTestFiles {
			return nil, nil, nil, nil
		}
		return nil, nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err.Error())
			}
		},
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, nil, fmt.Errorf("type-checking %s:\n  %s", path, strings.Join(errs, "\n  "))
	}
	return pkg, files, info, nil
}
