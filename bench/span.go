package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the
// span that caused it (0 for the root); spans of one decision round share
// Round. Counters, when present, is a snapshot of the layers' public
// counters taken at the span's end boundary.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Workload string             `json:"workload"`
	Round    int                `json:"round,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// maxSpans bounds the in-memory span log of one traced pass: the decision
// loop alone would otherwise record over a million spans in ten seconds.
// Spans past the bound are counted, not kept.
const maxSpans = 200_000

// tracer records harness-side spans in memory. A nil *tracer is the
// untraced pass: every method is a no-op on it, so call sites need no
// branches and the untraced pass pays one nil check per boundary.
type tracer struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []span
	dropped  int
	nextID   int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// begin opens a structural span (pass, set-up, slice, probe, reference
// run) under parent and returns its id (0 when untraced). Structural
// spans are few and always kept. Safe from any goroutine.
func (t *tracer) begin(parent int, name string, round int) int {
	return t.open(parent, name, round, false)
}

// hot opens a per-operation span (a frame, a write, a callback, a
// round); these are the ones maxSpans bounds, and 0 is returned for one
// not kept.
func (t *tracer) hot(parent int, name string, round int) int {
	return t.open(parent, name, round, true)
}

func (t *tracer) open(parent int, name string, round int, bounded bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if bounded && len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: parent, Name: name, StartNS: now, EndNS: -1,
		Workload: t.workload, Round: round,
	})
	return t.nextID
}

// end closes span id, optionally attaching a counter snapshot.
func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Ids are dense and 1-based, so the span sits at index id-1.
	s := &t.spans[id-1]
	s.EndNS = now
	s.Counters = counters
}

// selfTimes computes, per span id, its duration minus the part of that
// interval covered by its direct children (overlapping children are
// merged first, so concurrent callbacks are not subtracted twice).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, curLo, curHi int64
		open := false
		for _, c := range kids {
			lo, hi := c.StartNS, c.EndNS
			if lo < s.StartNS {
				lo = s.StartNS
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo <= curHi:
				if hi > curHi {
					curHi = hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// dump writes the span log as NDJSON, one span per line, and returns the
// path. Spans still open (a callback racing the end of the pass) are
// closed at the dump instant so every line is well formed.
func (t *tracer) dump(dir string) (string, error) {
	if t == nil {
		return "", nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.origin).Nanoseconds()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, t.workload+".spans.ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if t.spans[i].EndNS < 0 {
			t.spans[i].EndNS = now
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}

// topSelf summarises the dump for the printed report: total self time per
// span name, largest first.
func (t *tracer) topSelf(n int) []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	byName := map[string]int64{}
	count := map[string]int{}
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		count[s.Name]++
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if byName[names[i]] != byName[names[j]] {
			return byName[names[i]] > byName[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("%-28s self %9.3f ms over %d spans", name, float64(byName[name])/1e6, count[name])
	}
	return out
}
