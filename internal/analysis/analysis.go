// Package analysis is iorchestra-vet: the static-analysis passes that
// enforce the invariants no type, signature or test can carry. Suite
// lists them (`iorchestra-vet -list` prints it); docs/LINTING.md is the
// normative rule reference and says what holds each convention that is
// not a pass. Each Analyzer's Doc is the short form.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained: packages are
// parsed and type-checked with the standard library only (go/parser,
// go/types), so the tool builds with zero dependencies beyond the Go
// toolchain. cmd/iorchestra-vet is the multichecker driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named pass over a type-checked package.
type Analyzer struct {
	// Name identifies the pass in diagnostics and -run selections.
	// Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph rule statement shown by -list.
	Doc string
	// AppliesTo reports whether the pass runs on a package; nil means
	// every package. The driver consults it under -scope=auto; tests and
	// -scope=all run passes regardless.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// pkgName reports the receiver-qualified selector name for diagnostics.
func pkgName(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

// RunAnalyzers applies every analyzer to every package it matches and
// returns the diagnostics sorted by position. scopeAll disables
// AppliesTo gating. There is no suppression directive: a finding is
// fixed, or the rule is changed.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, scopeAll bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !scopeAll && a.AppliesTo != nil && !a.AppliesTo(strings.TrimSuffix(pkg.Path, "_test")) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// walkFiles runs fn over every node of every file in the pass.
func walkFiles(p *Pass, fn func(file *ast.File, n ast.Node) bool) {
	for _, f := range p.Files {
		file := f
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			return fn(file, n)
		})
	}
}

// importedPkg resolves a selector base identifier to the import path of
// the package it names, or "" when it is not a package reference.
func importedPkg(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
