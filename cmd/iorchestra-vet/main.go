// Command iorchestra-vet runs the project's custom static-analysis suite
// (internal/analysis) over package patterns, printing one line per
// finding and exiting non-zero when the tree violates an invariant.
//
//	iorchestra-vet ./...                 # the make lint entry point
//	iorchestra-vet -list                 # describe every pass
//	iorchestra-vet -run determinism ./internal/core
//	iorchestra-vet -scope=all dir/...    # ignore per-pass package scoping
//	iorchestra-vet -json ./...           # machine-readable findings (CI)
//
// The tool is a standalone multichecker: it parses and type-checks the
// target packages, _test.go files included, itself (standard library
// only, no go/packages), so it needs no network and no toolchain
// plumbing beyond `go run`. Exit codes: 0 clean, 1 findings, 2 usage or
// load errors. There is no suppression directive: a finding is fixed or
// the rule is changed. -json wraps the report in a versioned,
// schema-stable envelope (docs/LINTING.md documents the schema and
// every rule).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"iorchestra/internal/analysis"
)

// jsonFinding is one diagnostic in the -json envelope. The field set is
// schema-stable: CI's problem matcher and any downstream tooling key on
// it, so fields are only ever added, never renamed or removed.
type jsonFinding struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the suite's passes and exit")
	run := flag.String("run", "", "comma-separated pass names to run (default: all)")
	scope := flag.String("scope", "auto", "package scoping: auto (per-pass AppliesTo) or all")
	jsonOut := flag.Bool("json", false, "emit a versioned JSON report instead of text")
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.Suite()
	if *run != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*run, ",") {
			a := analysis.Lookup(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "iorchestra-vet: unknown pass %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iorchestra-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers, *scope == "all")
	if err != nil {
		fmt.Fprintf(os.Stderr, "iorchestra-vet: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
				return r
			}
		}
		return name
	}

	if *jsonOut {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				Pass:    d.Analyzer,
				File:    rel(d.Pos.Filename),
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Message: d.Message,
			})
		}
		emitJSON(struct {
			Version  int           `json:"version"`
			Findings []jsonFinding `json:"findings"`
		}{Version: 1, Findings: findings})
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "iorchestra-vet: %d finding(s)\n", len(diags))
			os.Exit(1)
		}
		return
	}

	for _, d := range diags {
		d.Pos.Filename = rel(d.Pos.Filename)
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "iorchestra-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "iorchestra-vet: encoding report: %v\n", err)
		os.Exit(2)
	}
}
