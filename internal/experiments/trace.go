package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"iorchestra"
	"iorchestra/internal/trace"
)

// traceDir, when non-empty, enables decision tracing on every platform
// the experiments build: each simulation point writes
// <dir>/<label>.ndjson (the raw event stream, loadable by
// cmd/iorchestra-trace) and <dir>/<label>.summary.txt (the per-domain
// decision/metrics summary). Points run on sweep's workers but each
// writes distinct files, so no locking is needed.
var traceDir string

// SetTraceDir enables per-point decision tracing, writing NDJSON traces
// and metrics summaries into dir (created by the caller). An empty dir
// disables tracing (the default).
func SetTraceDir(dir string) { traceDir = dir }

// tracedPlatform is the experiments' NewPlatform: identical, plus the
// experiment-wide tracing option when SetTraceDir was called.
func tracedPlatform(sys iorchestra.System, seed uint64, opts ...iorchestra.Option) *iorchestra.Platform {
	if traceDir != "" {
		opts = append([]iorchestra.Option{iorchestra.WithTracing(0)}, opts...)
	}
	return iorchestra.NewPlatform(sys, seed, opts...)
}

// dumpTrace exports a finished point's decision trace under label. A
// no-op unless tracing is enabled, so point functions call it
// unconditionally.
func dumpTrace(label string, p *iorchestra.Platform) {
	if traceDir == "" || p == nil || p.Trace == nil {
		return
	}
	events := p.Trace.Events()
	base := filepath.Join(traceDir, sanitizeLabel(label))
	f, err := os.Create(base + ".ndjson")
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		return
	}
	werr := trace.WriteNDJSON(f, events)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "trace: %s.ndjson: %v\n", base, werr)
		return
	}
	// The ring keeps the newest records only: say how much of a long
	// point's trace the files hold, as iorchestra-sim -trace does.
	summary := fmt.Sprintf("trace: %d events recorded (%d retained, %d evicted)\n%s",
		p.Trace.Recorded(), len(events), p.Trace.Dropped(), trace.Summarize(events).Format())
	if err := os.WriteFile(base+".summary.txt", []byte(summary), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
	}
}

// sanitizeLabel keeps labels filesystem-safe: anything outside
// [A-Za-z0-9._-] becomes '-'.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		}
		return '-'
	}, label)
}

// polTag abbreviates a policy set for trace labels (F=flush,
// C=congestion, S=cosched).
func polTag(p iorchestra.Policies) string {
	var b strings.Builder
	if p.Flush {
		b.WriteByte('F')
	}
	if p.Congestion {
		b.WriteByte('C')
	}
	if p.Cosched {
		b.WriteByte('S')
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}
