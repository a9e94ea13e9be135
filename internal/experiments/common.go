// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5) plus the Sec. 2 motivation test. Each experiment is
// a pure function of (scale, seed) and one sweep: it names its axes and
// a point function that builds a fresh platform and runs the scenario,
// and returns the series the paper plots as numbers (Result); the
// printed tables are derived from them. sweep owns the replication
// seeds and the worker pool.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"iorchestra/internal/sim"
)

// Scale selects run length: Quick for CI-speed smoke numbers, Full for
// report-quality curves (still shorter than the paper's hour-long runs;
// EXPERIMENTS.md documents the scaling).
type Scale int

const (
	// Quick runs seconds of virtual time per point.
	Quick Scale = iota
	// Full runs the report-quality durations.
	Full
)

// String names the scale.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// pick returns q for Quick and f for Full.
func (s Scale) pick(q, f sim.Duration) sim.Duration {
	if s == Quick {
		return q
	}
	return f
}

// Series is one plotted line: Y value per X, X being its panel's axis.
// A categorical axis (E0's variants, the SLA tiers) leaves X nil and
// names its ticks in the panel's XText.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Format is the fmt verb of a printed Y cell; durationCell prints
	// Y as a sim.Duration of nanoseconds.
	Format string
}

const durationCell = "duration"

// Footer is the one summary row some figures print under their series.
type Footer struct {
	Label  string
	Value  float64
	Format string
}

// Panel is one figure panel or table of the paper: series sharing the
// axis X. XText, when set, replaces the %g rendering of X as the
// printed axis; a tab in XName and in each XText entry starts a further
// label column (the SLA tables are keyed by mix and tier).
type Panel struct {
	Title  string
	XName  string
	X      []float64
	XText  []string
	Series []Series
	Footer *Footer
}

// add appends the series y(i) over the panel's axis.
func (p *Panel) add(label, format string, y func(i int) float64) {
	n := len(p.X)
	if p.X == nil {
		n = len(p.XText)
	}
	s := Series{Label: label, X: p.X, Format: format, Y: make([]float64, n)}
	for i := range s.Y {
		s.Y[i] = y(i)
	}
	p.Series = append(p.Series, s)
}

// Result is what every experiment returns: its numbers, panel by panel.
// What cmd/experiments prints is derived from them by Tables.
type Result struct {
	Panels []Panel
}

// Tables renders every panel.
func (r *Result) Tables() []*Table {
	tables := make([]*Table, len(r.Panels))
	for i := range r.Panels {
		tables[i] = SeriesTable(&r.Panels[i])
	}
	return tables
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// SeriesTable renders a panel: one row per X, one column per series,
// then the footer row padded to the header's width.
func SeriesTable(p *Panel) *Table {
	t := &Table{Title: p.Title, Header: strings.Split(p.XName, "\t")}
	for _, s := range p.Series {
		t.Header = append(t.Header, s.Label)
	}
	for i := range p.Series[0].Y {
		var row []string
		if p.XText != nil {
			row = strings.Split(p.XText[i], "\t")
		} else {
			row = []string{fmt.Sprintf("%g", p.X[i])}
		}
		for _, s := range p.Series {
			if s.Format == durationCell {
				row = append(row, sim.Duration(s.Y[i]).String())
			} else {
				row = append(row, fmt.Sprintf(s.Format, s.Y[i]))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	if f := p.Footer; f != nil {
		row := make([]string, len(t.Header))
		row[0], row[1] = f.Label, fmt.Sprintf(f.Format, f.Value)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// grid holds one sweep's results by coordinate.
type grid[T any] struct {
	dims []int
	reps int
	out  []T // row-major over dims, replications innermost
}

// at returns the replications of the point at coordinate c, in
// replication order.
func (g *grid[T]) at(c ...int) []T {
	i := 0
	for d, n := range g.dims {
		i = i*n + c[d]
	}
	return g.out[i*g.reps : (i+1)*g.reps]
}

// one returns the point at coordinate c of an unreplicated sweep.
func (g *grid[T]) one(c ...int) T { return g.at(c...)[0] }

// repSeedStride separates the seeds of one point's replications.
const repSeedStride = 1000

// sweep runs point at every coordinate of the grid spanned by dims, reps
// times each: replication r runs with seed+r*repSeedStride at every
// coordinate, so the systems compared at a point see the same seeds.
// Every (coordinate, replication) builds its own simulation — the
// kernels share nothing — so they fan out over a worker pool sized to
// GOMAXPROCS; results are stored by coordinate, never by completion
// order, and do not depend on the worker count.
func sweep[T any](seed uint64, reps int, point func(seed uint64, c []int) T, dims ...int) *grid[T] {
	n := reps
	for _, d := range dims {
		n *= d
	}
	g := &grid[T]{dims: dims, reps: reps, out: make([]T, n)}
	run := func(i int) {
		c := make([]int, len(dims))
		for d, rest := len(dims)-1, i/reps; d >= 0; d-- {
			c[d], rest = rest%dims[d], rest/dims[d]
		}
		g.out[i] = point(seed+uint64(i%reps)*repSeedStride, c)
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return g
}

// improvement reports (base-x)/base as a percentage (positive = better
// when smaller is better, e.g. latency).
func improvement(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - x) / base * 100
}

// gain reports (x-base)/base as a percentage (positive = better when
// larger is better, e.g. throughput).
func gain(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base * 100
}

// meanOf averages ys.
func meanOf(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	s := 0.0
	for _, y := range ys {
		s += y
	}
	return s / float64(len(ys))
}

// Registry maps experiment ids to runners so cmd/experiments can select
// them by name.
type Runner struct {
	ID       string
	Describe string
	Run      func(scale Scale, seed uint64) *Result
	// AliasOf names the experiment this id re-runs (fig11 is a panel of
	// fig10bc); "-run all" skips aliases.
	AliasOf string
}

var registry []Runner

func register(r Runner) { registry = append(registry, r) }

// Runners lists registered experiments sorted by id.
func Runners() []Runner {
	out := append([]Runner(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds a runner by id (nil if absent).
func Lookup(id string) *Runner {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}
