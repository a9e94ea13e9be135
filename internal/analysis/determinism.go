package analysis

import (
	"go/ast"
	"strings"
)

// determinismScope lists the packages whose behavior feeds the
// fixed-seed golden decision traces (testdata/golden): everything the
// simulation executes, plus the binaries that drive it. A wall-clock
// read or a draw from the global math/rand source anywhere in here
// silently breaks byte-identical replay.
var determinismScope = map[string]bool{
	"iorchestra":                     true,
	"iorchestra/internal/core":       true,
	"iorchestra/internal/store":      true,
	"iorchestra/internal/trace":      true,
	"iorchestra/internal/fault":      true,
	"iorchestra/internal/hypervisor": true,
	"iorchestra/internal/device":     true,
	"iorchestra/internal/blkio":      true,
	"iorchestra/internal/federation": true,
	"iorchestra/internal/cluster":    true,
}

// nonSimScope exempts the wire-facing packages from the determinism
// pass. They bridge the simulated store to real sockets, so wall-clock
// deadlines and timeouts are their job, not a leak: the
// store they host takes no time from them — it orders its own
// deliveries — and golden-trace parity is enforced on that side of the
// boundary (see internal/netstore parity tests). The exemption wins over the
// iorchestra/cmd/ prefix below.
var nonSimScope = map[string]bool{
	"iorchestra/internal/netstore":       true,
	"iorchestra/cmd/iorchestra-stored":   true,
	"iorchestra/cmd/iorchestra-clusterd": true,
}

// Wall-clock and timer entry points of package time. Pure conversions
// (time.Duration, time.ParseDuration, the unit constants) stay legal.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Package-level functions of math/rand (and v2) that draw from the
// process-global source. Constructing an explicitly seeded generator
// (rand.New, rand.NewSource, rand.NewZipf) stays legal — that is what
// stats.Stream does.
var forbiddenRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"Uint": true, "N": true,
}

// Determinism forbids wall-clock time and the global math/rand source in
// the deterministic-simulation packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Since/timers and the global math/rand source in " +
		"deterministic-sim packages; virtual time comes from sim.Kernel and " +
		"randomness from an explicitly seeded stats.Stream",
	AppliesTo: func(pkgPath string) bool {
		if nonSimScope[pkgPath] {
			return false
		}
		return determinismScope[pkgPath] || strings.HasPrefix(pkgPath, "iorchestra/cmd/")
	},
	Run: runDeterminism,
}

func runDeterminism(p *Pass) error {
	walkFiles(p, func(f *ast.File, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch importedPkg(p.TypesInfo, sel) {
		case "time":
			if forbiddenTimeFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(),
					"%s reads the wall clock; deterministic-sim code must take time from sim.Kernel (golden-trace parity depends on it)",
					pkgName(sel))
			}
		case "math/rand", "math/rand/v2":
			if forbiddenRandFuncs[sel.Sel.Name] {
				p.Reportf(sel.Pos(),
					"%s draws from the global math/rand source; use an explicitly seeded stats.Stream so fixed-seed runs replay identically",
					pkgName(sel))
			}
		}
		return true
	})
	return nil
}
