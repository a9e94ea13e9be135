package analysis

import (
	"go/ast"
	"go/token"
)

// wallClockBridges lists the packages the determinism rule does not
// hold in. They bridge the simulated store to real sockets or time the
// benchmark, so wall-clock deadlines, timeouts and heartbeats are their
// job, not a leak: the store they host takes no time from them — it
// orders its own deliveries — and golden-trace parity is enforced on
// that side of the boundary (see internal/netstore parity tests).
var wallClockBridges = map[string]bool{
	"iorchestra/internal/netstore":       true,
	"iorchestra/cmd/iorchestra-stored":   true,
	"iorchestra/cmd/iorchestra-clusterd": true,
	"iorchestra/bench":                   true,
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

// determinism forbids wall-clock time and the global math/rand source
// everywhere but the wall-clock bridges: every other package feeds the
// fixed-seed golden decision traces (testdata/golden), and a wall-clock
// read or a global-source draw anywhere in them silently breaks
// byte-identical replay. internal/experiments/clock.go is the injected
// stopwatch cmd/experiments reports progress with, and the one file of
// its package that reads the wall clock.
var determinism = &rule{
	name: "determinism",
	inScope: func(s *source) bool {
		return !wallClockBridges[s.pkg] &&
			!(s.pkg == "iorchestra/internal/experiments" && s.name == "clock.go")
	},
	check: func(s *source, report func(token.Pos, string, ...any)) {
		ast.Inspect(s.file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch s.importPath(sel) {
			case "time":
				if forbiddenTimeFuncs[sel.Sel.Name] {
					report(sel.Pos(),
						"%s reads the wall clock; deterministic-sim code must take time from sim.Kernel (golden-trace parity depends on it)",
						selectorName(sel))
				}
			case "math/rand", "math/rand/v2":
				if forbiddenRandFuncs[sel.Sel.Name] {
					report(sel.Pos(),
						"%s draws from the global math/rand source; use an explicitly seeded stats.Stream so fixed-seed runs replay identically",
						selectorName(sel))
				}
			}
			return true
		})
	},
}

// selectorName renders a package-qualified selector for a message.
func selectorName(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
