// Command bench is the repository's one benchmark: five named workloads
// that between them exercise every layer of the loop — store, bus,
// netstore, the policy controllers, the hypervisor model, blkio, the
// device model, the sim kernel and the epoch machinery — reported as five
// top-line figures per workload (the two the shared box holds steady are
// the gated end-to-end metrics) and a per-layer cost ledger.
// README.md in this directory defines every name; BENCHMARK.json at the
// repository root fixes the bounds.
//
//	go run ./bench                                  every workload, end-to-end pass
//	go run ./bench -trace 1                         plus the traced pass (per-layer table, span dumps)
//	go run ./bench -workload wire_hotpath -seed 3   one workload
//	go run ./bench -repeat 5                        repeatability self-check
//	go run ./bench -out a.json ; go run ./bench -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the gated end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. Everything else
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	repeat   int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload by name (default: all five)")
	flag.Uint64Var(&o.seed, "seed", 7, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured span per pass: wall seconds (wire) or the calibrated simulated span for that many seconds (sim)")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced pass: per-layer metrics, span dump, tracing overhead")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_out", "directory for span dumps and the wire workloads' sockets")
	flag.IntVar(&o.repeat, "repeat", 0, "run N full sets and check every gated metric's spread against its bound")
	flag.StringVar(&o.out, "out", "", "also write the stamped results as JSON here (input of -compare)")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments instead of running")
	flag.Parse()

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files, got %d", len(args))
		}
		return compareFiles(args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	ctx := runCtx{
		seed: o.seed, seconds: o.seconds, trace: o.trace == 1, outDir: o.traceOut, consts: frozen,
		log: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...) },
	}
	defs := workloadDefs
	if o.workload != "" {
		def := findWorkload(o.workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		defs = []workloadDef{*def}
	}
	if o.repeat > 0 {
		return runRepeat(ctx, defs, o.repeat)
	}

	report := newReport(ctx)
	var failed []string
	for _, def := range defs {
		res, err := def.run(ctx)
		if err != nil {
			return err
		}
		if bad := append(res.EndToEnd.unknown(topLine), res.PerLayer.unknown(perLayer)...); len(bad) > 0 {
			return fmt.Errorf("%s reported undefined metrics %v", def.Name, bad)
		}
		report.Results = append(report.Results, res)
		printResult(os.Stderr, def, res)
		if !res.Correct {
			failed = append(failed, def.Name)
		}
	}
	if o.out != "" {
		if err := report.write(o.out); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness checks failed on %s", strings.Join(failed, ", "))
	}
	for _, res := range report.Results {
		if err := printResultLine(res, ctx.trace); err != nil {
			return err
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

// resultLine is the contract's one-line result.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// printResultLine writes the result line to standard output: the gated
// end-to-end metrics of the untraced pass, or the per-layer ledger of the
// traced one (which opens with the untraced pass's ungated figures).
func printResultLine(res *result, traced bool) error {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed}
	if traced {
		line.Metrics = res.PerLayer.report(perLayer)
	} else {
		line.Metrics = res.EndToEnd.report(endToEnd)
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(blob))
	return err
}

// printResult renders one workload's numbers for a reader: every metric
// by name with its unit, timings with median, p99, the highest
// percentile the sample supports and the sample count.
func printResult(w *os.File, def workloadDef, res *result) {
	status := "ok"
	if !res.Correct {
		status = "FAIL"
	}
	fmt.Fprintf(w, "\n== %s: %s ==\n   %s\n", def.Name, status, def.Why)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAIL: %s\n", f)
	}
	fmt.Fprintf(w, "   %s\n", def.Loop)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	fmt.Fprintf(w, "   ops_attempted %d   ops_failed_frac %g\n", res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, d := range topLine {
		fmt.Fprintf(w, "   %-16s %14.4f %-4s", d.Name, res.EndToEnd[d.Name], d.Unit)
		switch d.Name {
		case "work_per_s":
			fmt.Fprintf(w, "  (%s per wall second)", def.Work)
		case "latency_p50_us":
			fmt.Fprintf(w, "  (%s; n=%d)", def.Latency, res.Latency.N)
		case "latency_p99_us":
			if res.Latency.TailP > 0 {
				fmt.Fprintf(w, "  (highest percentile with 10 samples beyond it: p%g = %.4f us)", res.Latency.TailP, res.Latency.Tail)
			}
		case "latency_quiet_us":
			if def.Sim {
				fmt.Fprintf(w, "  (the simulated median: the box cannot disturb simulated time)")
			} else {
				fmt.Fprintf(w, "  (p%g of the round trips: what one costs when the box leaves it alone)", quietPercentile)
			}
		}
		if why := gateFor(def, d.Name).Ungated; why != "" {
			fmt.Fprintf(w, "  [not gated by -repeat/-compare: %s]", why)
		}
		fmt.Fprintln(w)
	}
	if keys := sortedKeys(res.Exact); len(keys) > 0 {
		fmt.Fprintf(w, "   exact:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, res.Exact[k])
		}
		fmt.Fprintln(w)
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "   -- per layer (traced pass) --\n")
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "   %-40s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if res.SpanDump != "" {
		fmt.Fprintf(w, "   span dump: %s\n", res.SpanDump)
		for _, line := range res.SelfTimes {
			fmt.Fprintf(w, "     %s\n", line)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
