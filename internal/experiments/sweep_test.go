package experiments

import (
	"runtime"
	"testing"

	"iorchestra/internal/sim"
)

// TestSweepCoordinatesAndSeeds pins what every figure stands on: a
// point is addressed by its coordinate, replication r of every
// coordinate runs with seed+1000r, and neither depends on how many
// workers ran the sweep.
func TestSweepCoordinatesAndSeeds(t *testing.T) {
	type call struct {
		seed uint64
		c    [2]int
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		g := sweep(42, 3, func(seed uint64, c []int) call {
			return call{seed, [2]int{c[0], c[1]}}
		}, 2, 4)
		runtime.GOMAXPROCS(prev)
		if len(g.out) != 2*4*3 {
			t.Fatalf("GOMAXPROCS=%d: %d results, want 24", procs, len(g.out))
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 4; j++ {
				reps := g.at(i, j)
				if len(reps) != 3 {
					t.Fatalf("GOMAXPROCS=%d: at(%d,%d) has %d replications, want 3", procs, i, j, len(reps))
				}
				for r, got := range reps {
					want := call{42 + uint64(r)*1000, [2]int{i, j}}
					if got != want {
						t.Fatalf("GOMAXPROCS=%d: at(%d,%d)[%d] = %+v, want %+v", procs, i, j, r, got, want)
					}
				}
			}
		}
		// Row-major, replications innermost: the last axis varies fastest.
		if got := g.out[(1*4+2)*3+1]; got != (call{1042, [2]int{1, 2}}) {
			t.Fatalf("GOMAXPROCS=%d: flat order moved: %+v", procs, got)
		}
	}
}

// TestSeriesTableLayout pins the one renderer every figure's tables
// come from: %g X cells or XText, a tab starting a second label column,
// per-series verbs, duration cells, and the footer padded to the
// header's width so the trailing columns keep their alignment spaces.
func TestSeriesTableLayout(t *testing.T) {
	numeric := &Panel{Title: "T", XName: "x", X: []float64{0.5, 10},
		Series: []Series{
			{Label: "a", Y: []float64{1.5, 20}, Format: "%.1f%%"},
			{Label: "lat", Y: []float64{float64(2720 * sim.Microsecond), 1}, Format: durationCell},
		},
		Footer: &Footer{"mean", 10.61, "%.1f"}}
	want := "== T ==\n" +
		"x     a      lat    \n" +
		"0.5   1.5%   2.720ms\n" +
		"10    20.0%  1ns    \n" +
		"mean  10.6          \n"
	if got := SeriesTable(numeric).Format(); got != want {
		t.Fatalf("numeric panel:\n%q\nwant\n%q", got, want)
	}
	keyed := &Panel{Title: "K", XName: "mix\ttier", XText: []string{"1g\tgold", "1g\tbronze"},
		Series: []Series{{Label: "n", Y: []float64{7, 0}, Format: "%.0f"}}}
	want = "== K ==\n" +
		"mix  tier    n\n" +
		"1g   gold    7\n" +
		"1g   bronze  0\n"
	if got := SeriesTable(keyed).Format(); got != want {
		t.Fatalf("keyed panel:\n%q\nwant\n%q", got, want)
	}
}
