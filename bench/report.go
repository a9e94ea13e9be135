package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

// stamp says where and on what a result was measured. Two results are
// comparable only within a machine class and with equal constants.
type stamp struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CPUModel   string    `json:"cpu_model"`
	GitSHA     string    `json:"git_sha"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Constants  constants `json:"constants"`
}

// machineClass is the part of a stamp that must match for host-time
// numbers to be comparable.
func (s stamp) machineClass() string {
	return fmt.Sprintf("%s / %d cpus / GOMAXPROCS %d / %s", s.CPUModel, s.NProc, s.GOMAXPROCS, s.GoVersion)
}

func newStamp(ctx runCtx) stamp {
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), GitSHA: gitSHA(), Seed: ctx.seed, Seconds: ctx.seconds, Constants: ctx.consts,
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitSHA stamps the commit measured; "unknown" outside a checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report is one stamped set of workload results (-out, -compare).
type report struct {
	Stamp   stamp     `json:"stamp"`
	Results []*result `json:"results"`
}

func newReport(ctx runCtx) *report { return &report{Stamp: newStamp(ctx)} }

func (r *report) write(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worse reports by what share of old's value new is worse, given the
// metric's direction (negative: better).
func worse(d metricDef, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// comparableStamps refuses pairs whose host-time numbers mean different
// things: another machine class, another seed or span, other constants.
func comparableStamps(a, b stamp) error {
	if a.machineClass() != b.machineClass() {
		return fmt.Errorf("machine classes differ: %q vs %q", a.machineClass(), b.machineClass())
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("runs differ: seed %d for %d s vs seed %d for %d s", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	if !reflect.DeepEqual(a.Constants, b.Constants) {
		return fmt.Errorf("workload constants differ: these are two different benchmarks")
	}
	return nil
}

// compareFiles diffs two stamped result files metric by metric and fails
// when a gated metric worsened past the harness's bound for that workload
// (gateFor) or an exact count moved.
func compareFiles(oldPath, newPath string) error {
	a, err := readReport(oldPath)
	if err != nil {
		return err
	}
	b, err := readReport(newPath)
	if err != nil {
		return err
	}
	if err := comparableStamps(a.Stamp, b.Stamp); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	fmt.Printf("comparing %s (%s) -> %s (%s) on %s\n", oldPath, a.Stamp.GitSHA, newPath, b.Stamp.GitSHA, a.Stamp.machineClass())
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	var regressions []string
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Printf("%-20s missing from %s\n", ra.Workload, newPath)
			continue
		}
		def := findWorkload(ra.Workload)
		if def == nil {
			return fmt.Errorf("%s: unknown workload %q", oldPath, ra.Workload)
		}
		for _, d := range topLine {
			g := gateFor(*def, d.Name)
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			w := worse(d, va, vb)
			verdict := "ok"
			switch {
			case !g.exceeded(w, vb-va):
			case g.Ungated != "":
				verdict = "not gated (" + g.Ungated + ")"
			default:
				verdict = "REGRESSION"
				regressions = append(regressions, ra.Workload+"/"+d.Name)
			}
			fmt.Printf("%-20s %-16s %14.4f -> %14.4f %-4s  %+7.2f%% worse (bound %g%%)  %s\n",
				ra.Workload, d.Name, va, vb, d.Unit, 100*w, 100*g.Bound, verdict)
		}
		// The modelled gain is a percentage already: 0.1 points, and only
		// when both files come from a traced pass.
		if ga, ok := ra.PerLayer["model.gain_pct"]; ok && rb.PerLayer != nil {
			if gb := rb.PerLayer["model.gain_pct"]; math.Abs(gb-ga) > 0.1 {
				fmt.Printf("%-20s model.gain_pct %.4f -> %.4f %%  MODEL CHANGE\n", ra.Workload, ga, gb)
				regressions = append(regressions, ra.Workload+"/model.gain_pct")
			}
		}
		for _, k := range sortedKeys(ra.Exact) {
			if ra.Exact[k] != rb.Exact[k] {
				fmt.Printf("%-20s exact %-24s %d -> %d  MODEL CHANGE\n", ra.Workload, k, ra.Exact[k], rb.Exact[k])
				regressions = append(regressions, ra.Workload+"/"+k)
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d metric(s) outside their bound: %s", len(regressions), strings.Join(regressions, ", "))
	}
	return nil
}

// runRepeat is the repeatability self-check: n full sets of the chosen
// workloads, then per workload × top-line figure the median, quartiles
// and relative spread against the harness's bound for that workload
// (gateFor; a set-up spread under the 0.05 s floor passes), plus
// bit-identity of every exact count across the sets and across GOMAXPROCS
// 1 and the default.
func runRepeat(ctx runCtx, defs []workloadDef, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat %d: need at least 2 sets to have a spread", n)
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	exact := map[string]map[string]uint64{}
	var problems []string
	ctx.trace = false
	set := func(defs []workloadDef, tag string) error {
		for _, def := range defs {
			res, err := def.run(ctx)
			if err != nil {
				return err
			}
			if !res.Correct {
				problems = append(problems, fmt.Sprintf("%s (%s): %s", def.Name, tag, strings.Join(res.Failures, "; ")))
			}
			if tag != "" {
				for _, d := range topLine {
					k := key{def.Name, d.Name}
					values[k] = append(values[k], res.EndToEnd[d.Name])
				}
			}
			if first, ok := exact[def.Name]; !ok {
				exact[def.Name] = res.Exact
			} else if !reflect.DeepEqual(first, res.Exact) {
				for _, k := range sortedKeys(first) {
					if first[k] != res.Exact[k] {
						problems = append(problems, fmt.Sprintf("%s: exact count %s not repeatable (%d, then %d %s)",
							def.Name, k, first[k], res.Exact[k], tag))
					}
				}
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		ctx.log("repeat: set %d of %d", i+1, n)
		if err := set(defs, fmt.Sprintf("set %d", i+1)); err != nil {
			return err
		}
	}
	// Simulated results must not depend on how many threads ran the
	// kernels (TestRunEpochsParity's promise, checked at scale). The
	// host-time numbers of this set are discarded.
	if prev := runtime.GOMAXPROCS(0); prev > 1 {
		ctx.log("repeat: simulated workloads again at GOMAXPROCS=1")
		var simOnly []workloadDef
		for _, d := range defs {
			if d.Sim {
				simOnly = append(simOnly, d)
			}
		}
		runtime.GOMAXPROCS(1)
		err := set(simOnly, "")
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
	}

	fmt.Printf("repeatability over %d sets, seed %d, %d s (%s)\n", n, ctx.seed, ctx.seconds, newStamp(ctx).machineClass())
	fmt.Printf("%-20s %-16s %14s %14s %14s %8s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, def := range defs {
		for _, d := range topLine {
			xs := values[key{def.Name, d.Name}]
			q1, med, q3 := quartiles(xs)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			// With a handful of sets the quartiles sit on the extremes;
			// report the full range too so the table is honest about it.
			spread := relSpread(xs)
			full := (sorted[len(sorted)-1] - sorted[0]) / med
			g := gateFor(def, d.Name)
			verdict := ""
			switch {
			case !g.exceeded(spread, q3-q1):
			case g.Ungated != "":
				verdict = "  not gated"
			default:
				verdict = "  TOO NOISY"
				problems = append(problems, fmt.Sprintf("%s/%s: spread %.1f%% exceeds bound %g%%", def.Name, d.Name, 100*spread, 100*g.Bound))
			}
			fmt.Printf("%-20s %-16s %14.4f %14.4f %14.4f %7.2f%% %6g%%  (max-min %.2f%%)%s\n",
				def.Name, d.Name, q1, med, q3, 100*spread, 100*g.Bound, 100*full, verdict)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("repeatability: %s", strings.Join(problems, "; "))
	}
	fmt.Println("exact counts and simulated latencies identical across all sets and GOMAXPROCS 1 vs default")
	return nil
}
