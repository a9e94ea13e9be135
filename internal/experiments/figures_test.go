package experiments

import (
	"math"
	"os"
	"testing"

	"iorchestra"
)

// figuresEnv gates the checklist rows whose experiments simulate tens of
// seconds of wall time; `make figures` sets it, plain `go test` runs the
// sub-second rows only.
const figuresEnv = "FIGURES"

// item5 is why a checklist row is skipped rather than asserted: the
// shape does not hold at quick scale today, and making it hold is a
// model change that regenerates goldens in its own PR.
const item5 = "ROADMAP item 5 (reproduction checklist): "

// ys returns the Y values of one series of a result, by panel and label.
func ys(t *testing.T, r *Result, panel int, label string) []float64 {
	t.Helper()
	for _, s := range r.Panels[panel].Series {
		if s.Label == label {
			return s.Y
		}
	}
	t.Fatalf("panel %q has no series %q", r.Panels[panel].Title, label)
	return nil
}

// TestReproductionChecklist holds EXPERIMENTS.md's reproduction
// checklist, row for row, against the experiments' numbers at quick
// scale and the CI seed, plus the chaos sweep's documented bar. Rows
// assert shapes — which system wins, how an effect trends, where it
// appears and vanishes — never values (EXPERIMENTS.md "Reading
// guidance"). EXPERIMENTS.md's Status column mirrors this table.
func TestReproductionChecklist(t *testing.T) {
	base, sdc, dif, io := iorchestra.SystemBaseline.String(), iorchestra.SystemSDC.String(),
		iorchestra.SystemDIF.String(), iorchestra.SystemIOrchestra.String()
	rows := []struct {
		name  string // EXPERIMENTS.md "Assertion" column
		id    string // experiment that produces the numbers
		slow  bool   // behind figuresEnv
		skip  string // why the row cannot be asserted yet
		check func(t *testing.T, r *Result)
	}{
		{name: "false-triggers-expensive-veto-recovers", id: "E0",
			check: func(t *testing.T, r *Result) {
				p := ys(t, r, 0, "p99.9 (ms)")
				on, off, veto := p[0], p[1], p[2]
				if on < 3*off {
					t.Errorf("avoidance-on p99.9 %.1f ms is not >> avoidance-off %.1f ms", on, off)
				}
				if veto > 1.25*off {
					t.Errorf("IOrchestra p99.9 %.1f ms does not recover avoidance-off's %.1f ms", veto, off)
				}
			}},
		{name: "tails-improve-more-than-means", id: "fig4", slow: true,
			skip: item5 + "every Fig. 4 improvement reads negative at quick scale",
			check: func(t *testing.T, r *Result) {
				imp := ys(t, r, 6, "improvement") // Olio, YCSB1, YCSB2 × (mean, p99.9)
				mean := (imp[0] + imp[2] + imp[4]) / 3
				tail := (imp[1] + imp[3] + imp[5]) / 3
				if !(tail > mean && mean > 0) {
					t.Errorf("mean improvement %.1f%%, tail improvement %.1f%%: want tail > mean > 0", mean, tail)
				}
			}},
		{name: "dif-beats-sdc-and-baseline-on-ycsb1", id: "fig4", slow: true,
			skip: item5 + "DIF's YCSB1 mean is the worst of the four systems at quick scale",
			check: func(t *testing.T, r *Result) {
				last := len(ys(t, r, 1, dif)) - 1 // Fig 4(b) at the highest rate
				d, s, b := ys(t, r, 1, dif)[last], ys(t, r, 1, sdc)[last], ys(t, r, 1, base)[last]
				if !(d < s && d < b) {
					t.Errorf("YCSB1 mean at the highest rate: DIF %.0f us, SDC %.0f, Baseline %.0f: want DIF lowest", d, s, b)
				}
			}},
		{name: "flush-gain-grows-with-vm-count", id: "fig8", slow: true,
			skip: item5 + "the gain peaks near 2 % at 14 VMs instead of landing in 8-15 % at 14-20 VMs",
			check: func(t *testing.T, r *Result) {
				p := r.Panels[0]
				prev := math.Inf(-1)
				for vi, vms := range p.X {
					var row float64
					for _, s := range p.Series {
						row += s.Y[vi] / float64(len(p.Series))
					}
					if row < prev {
						t.Errorf("mean gain falls to %.1f%% at %g VMs", row, vms)
					}
					if vms >= 14 && (row < 8 || row > 15) {
						t.Errorf("mean gain %.1f%% at %g VMs is outside 8-15 %%", row, vms)
					}
					prev = row
				}
			}},
		// Holds where the paper reports its maximum (the largest VM
		// count); at 2-8 VMs the policy gains nothing and the axis is
		// flat or inverted, and the magnitude (1.7 % against the paper's
		// 21 %) is ROADMAP item 5's.
		{name: "flush-gain-grows-with-dirty-ratio", id: "fig8", slow: true,
			check: func(t *testing.T, r *Result) {
				p := r.Panels[0]
				last := len(p.Series[0].Y) - 1
				for ri := 1; ri < len(p.Series); ri++ {
					if p.Series[ri].Y[last] <= p.Series[ri-1].Y[last] {
						t.Errorf("gain at %s (%.1f%%) does not exceed gain at %s (%.1f%%)",
							p.Series[ri].Label, p.Series[ri].Y[last], p.Series[ri-1].Label, p.Series[ri-1].Y[last])
					}
				}
			}},
		{name: "flush-gain-grows-with-arrival-rate", id: "table2", slow: true,
			skip: item5 + "fixed-volume FS jobs compress Table 2 to about 0-3 % and it is not monotone",
			check: func(t *testing.T, r *Result) {
				y := ys(t, r, 0, "improvement")
				for i := 1; i < len(y); i++ {
					if y[i] <= y[i-1] {
						t.Errorf("improvement does not rise with λ: %v", y)
						break
					}
				}
				if y[0] <= 0 {
					t.Errorf("no improvement at the lowest λ: %.1f%%", y[0])
				}
			}},
		{name: "congestion-policy-helps-fs-only", id: "fig9", slow: true,
			check: func(t *testing.T, r *Result) {
				// "Below 1.000" as the table prints it.
				below := func(label string) (n int) {
					for _, y := range ys(t, r, 0, label) {
						if y < 0.9995 {
							n++
						}
					}
					return n
				}
				if below("FS") == 0 {
					t.Error("FS never drops below 1.000")
				}
				if below("WS") != 0 || below("VS") != 0 {
					t.Errorf("WS/VS drop below 1.000: WS %v, VS %v", ys(t, r, 0, "WS"), ys(t, r, 0, "VS"))
				}
			}},
		{name: "cosched-inverted-u", id: "fig10a", slow: true,
			check: func(t *testing.T, r *Result) {
				y := ys(t, r, 0, "improvement") // 20 / 40 / 60 / 80 % I/O threads
				ends, mid := math.Max(y[0], y[3]), math.Min(y[1], y[2])
				if !(mid > 0 && mid > ends) {
					t.Errorf("improvement %v is not an inverted U over I/O intensity", y)
				}
			}},
		{name: "dedicated-cores-raise-utilisation-at-low-lambda", id: "fig10bc", slow: true,
			check: func(t *testing.T, r *Result) {
				b := ys(t, r, 1, base) // Fig 10(c)
				for i := 1; i < len(b); i++ {
					if b[i] <= b[0] {
						t.Errorf("Baseline utilisation is not lowest at the lowest λ: %v", b)
					}
				}
				for _, polling := range []string{sdc, io} {
					if u := ys(t, r, 1, polling)[0]; u <= b[0] {
						t.Errorf("%s utilisation %.0f%% at the lowest λ is not above Baseline's %.0f%%", polling, u, b[0])
					}
				}
			}},
		{name: "completed-vm-gain-at-high-lambda", id: "fig10bc", slow: true,
			skip: item5 + "the job mix is CPU-capacity-bound, so the completed-VM gain is 0 +/- 2 %",
			check: func(t *testing.T, r *Result) {
				last := len(ys(t, r, 0, io)) - 1 // Fig 10(b) at the highest λ
				if g, s := ys(t, r, 0, io)[last], ys(t, r, 0, sdc)[last]; !(g > 0 && g > s) {
					t.Errorf("completed-VM gain at the highest λ: IOrchestra %.1f%%, SDC %.1f%%: want IOrchestra > SDC, > 0", g, s)
				}
			}},
		{name: "bursty-baseline-tail-explodes", id: "fig12", slow: true,
			check: func(t *testing.T, r *Result) {
				for pi, p := range r.Panels { // 50 ms and 100 ms bursts
					b, o := ys(t, r, pi, base), ys(t, r, pi, io)
					for i, rate := range p.X {
						if rate >= 400 && b[i] < 3*o[i] {
							t.Errorf("%s: at %g req/s Baseline p99.9 %.0f us is under 3x IOrchestra's %.0f us",
								p.Title, rate, b[i], o[i])
						}
					}
				}
			}},
		// Not a paper row: docs/FAULTS.md's graceful-degradation bar, at
		// every uncooperative fraction the sweep prints.
		{name: "chaos-within-5pct-of-baseline", id: "chaos",
			check: func(t *testing.T, r *Result) {
				b, o := ys(t, r, 0, "Baseline MB/s"), ys(t, r, 0, "IOrchestra MB/s")
				for i, frac := range r.Panels[0].X {
					if b[i] == 0 {
						t.Fatalf("uncoop %g: Baseline wrote nothing", frac)
					}
					if d := math.Abs(o[i]-b[i]) / b[i]; d > 0.05 {
						t.Errorf("uncoop %g: IOrchestra %.1f MB/s vs Baseline %.1f MB/s (%.1f%% apart, want <= 5%%)",
							frac, o[i], b[i], d*100)
					}
				}
			}},
	}

	// Rows that read the same experiment share one run of it.
	results := map[string]*Result{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.skip != "" {
				t.Skip(row.skip)
			}
			if row.slow && os.Getenv(figuresEnv) == "" {
				t.Skipf("slow row: set %s=1 (make figures)", figuresEnv)
			}
			if results[row.id] == nil {
				results[row.id] = Lookup(row.id).Run(Quick, 42)
			}
			row.check(t, results[row.id])
		})
	}
}
