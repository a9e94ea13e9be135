// Package fault is IOrchestra's deterministic, seed-driven fault-injection
// subsystem. The paper's control plane assumes every guest runs a store
// driver and answers promptly; a production cloud never gets that (legacy
// guests, crashed drivers, lost XenStore events, devices degrading into
// IOTune-style G-states). This package injects exactly those failures —
// uncooperative guests, crashed/restarting drivers, delayed or dropped
// watch deliveries, stale store keys, slow or failed RAID members, and
// stuck guest syncs — so the management module's graceful-degradation
// paths (docs/FAULTS.md) can be exercised and measured.
//
// All randomness flows from a stats.Stream forked off the platform seed,
// so a given (seed, Spec) pair injects an identical fault schedule on
// every run. Every injected fault is counted and, when tracing is on,
// emitted as a typed fault.inject record.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Spec declares which faults to inject and how hard. The zero value
// injects nothing. ParseSpec builds one from the -faults flag grammar:
//
//	uncoop=0.5,crash=0.25@2s+3s,watchdelay=10ms:0.3,watchdrop=0.05,
//	stalewrite=0.02,stucksync=0.5,member=3:8
//
// Fields map one-to-one onto the grammar's clauses; see docs/FAULTS.md.
type Spec struct {
	// Uncoop is the fraction of guests that come up without a store
	// driver at all — legacy images the toolstack cannot modify. The
	// choice is deterministic per domain id.
	Uncoop float64
	// CrashFrac is the fraction of enabled drivers that crash (watches
	// torn down, heartbeats stopped, hooks detached — no goodbye write).
	CrashFrac float64
	// CrashAt is how long after enablement a selected driver crashes
	// (default 1s).
	CrashAt sim.Duration
	// CrashRestart, when positive, restarts a crashed driver that much
	// later; zero means the driver never comes back.
	CrashRestart sim.Duration
	// WatchDelayProb/WatchDelayMax add a uniform extra delay in
	// (0, WatchDelayMax] to a delivered watch notification with the given
	// probability.
	WatchDelayProb float64
	WatchDelayMax  sim.Duration
	// WatchDropProb loses a delivered watch notification entirely.
	WatchDropProb float64
	// StaleWriteProb makes a store write succeed from the writer's view
	// while the key silently keeps its old value (a torn transaction).
	StaleWriteProb float64
	// StuckSyncProb is the per-flush-order probability that the guest's
	// sync() never completes and flush_now is never reset.
	StuckSyncProb float64
	// SlowMembers maps RAID member index -> slowdown factor: the member's
	// effective bandwidth becomes capacity/factor while the host keeps
	// believing the spec-sheet number. Factors of 100+ model a failed
	// member limping on its last reallocated sectors (RAID0 has no
	// redundancy, so the whole array crawls with it).
	SlowMembers map[int]float64
}

// Empty reports whether the spec injects nothing at all.
func (s Spec) Empty() bool {
	return s.Uncoop <= 0 && s.CrashFrac <= 0 && s.WatchDelayProb <= 0 &&
		s.WatchDropProb <= 0 && s.StaleWriteProb <= 0 && s.StuckSyncProb <= 0 &&
		len(s.SlowMembers) == 0
}

// ParseSpec parses the comma-separated -faults grammar. Probabilities are
// floats in [0,1], durations use Go syntax (10ms, 2s), and member clauses
// may repeat. An empty string yields the empty Spec.
func ParseSpec(raw string) (Spec, error) {
	var s Spec
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return s, nil
	}
	for _, clause := range strings.Split(raw, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, val, ok := strings.Cut(clause, "=")
		if !ok {
			return s, fmt.Errorf("fault: clause %q is not name=value", clause)
		}
		var err error
		switch name {
		case "uncoop":
			s.Uncoop, err = parseProb(name, val)
		case "crash":
			err = parseCrash(&s, val)
		case "watchdelay":
			dur, prob, cutOK := strings.Cut(val, ":")
			if !cutOK {
				return s, fmt.Errorf("fault: watchdelay wants DURATION:PROB, got %q", val)
			}
			if s.WatchDelayMax, err = parseDur(name, dur); err == nil {
				s.WatchDelayProb, err = parseProb(name, prob)
			}
		case "watchdrop":
			s.WatchDropProb, err = parseProb(name, val)
		case "stalewrite":
			s.StaleWriteProb, err = parseProb(name, val)
		case "stucksync":
			s.StuckSyncProb, err = parseProb(name, val)
		case "member":
			idx, factor, cutOK := strings.Cut(val, ":")
			if !cutOK {
				return s, fmt.Errorf("fault: member wants INDEX:FACTOR, got %q", val)
			}
			var i int
			var f float64
			if i, err = strconv.Atoi(idx); err != nil || i < 0 {
				return s, fmt.Errorf("fault: bad member index %q", idx)
			}
			if f, err = strconv.ParseFloat(factor, 64); err != nil || f < 1 {
				return s, fmt.Errorf("fault: member factor %q must be a float >= 1", factor)
			}
			if s.SlowMembers == nil {
				s.SlowMembers = map[int]float64{}
			}
			s.SlowMembers[i] = f
		default:
			return s, fmt.Errorf("fault: unknown clause %q", name)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

// parseCrash handles FRAC[@AT][+RESTART], e.g. 0.25, 0.25@2s, 0.25@2s+3s.
func parseCrash(s *Spec, val string) error {
	frac := val
	if i := strings.IndexAny(val, "@+"); i >= 0 {
		frac = val[:i]
		rest := val[i:]
		if strings.HasPrefix(rest, "@") {
			at := rest[1:]
			if j := strings.IndexByte(at, '+'); j >= 0 {
				at, rest = at[:j], at[j:]
			} else {
				rest = ""
			}
			d, err := parseDur("crash", at)
			if err != nil {
				return err
			}
			s.CrashAt = d
		}
		if strings.HasPrefix(rest, "+") {
			d, err := parseDur("crash", rest[1:])
			if err != nil {
				return err
			}
			s.CrashRestart = d
		}
	}
	var err error
	s.CrashFrac, err = parseProb("crash", frac)
	return err
}

func parseProb(name, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	// The comparison form rejects NaN too.
	if err != nil || !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("fault: %s wants a probability in [0,1], got %q", name, val)
	}
	return p, nil
}

func parseDur(name, val string) (sim.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("fault: %s wants a positive duration, got %q", name, val)
	}
	return sim.Duration(d.Nanoseconds()), nil
}

// String renders the spec back in the grammar ParseSpec accepts, with
// clauses in canonical order (round-trips through ParseSpec).
func (s Spec) String() string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if s.Uncoop > 0 {
		add("uncoop=%g", s.Uncoop)
	}
	if s.CrashFrac > 0 {
		c := fmt.Sprintf("crash=%g", s.CrashFrac)
		if s.CrashAt > 0 {
			c += "@" + goDur(s.CrashAt)
		}
		if s.CrashRestart > 0 {
			c += "+" + goDur(s.CrashRestart)
		}
		parts = append(parts, c)
	}
	if s.WatchDelayProb > 0 {
		add("watchdelay=%s:%g", goDur(s.WatchDelayMax), s.WatchDelayProb)
	}
	if s.WatchDropProb > 0 {
		add("watchdrop=%g", s.WatchDropProb)
	}
	if s.StaleWriteProb > 0 {
		add("stalewrite=%g", s.StaleWriteProb)
	}
	if s.StuckSyncProb > 0 {
		add("stucksync=%g", s.StuckSyncProb)
	}
	idxs := make([]int, 0, len(s.SlowMembers))
	for i := range s.SlowMembers {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		add("member=%d:%g", i, s.SlowMembers[i])
	}
	return strings.Join(parts, ",")
}

func goDur(d sim.Duration) string { return time.Duration(d).String() }

// CrashRestarter is the driver surface the injector needs: core.Driver
// implements it. Declared here so fault does not import core.
type CrashRestarter interface {
	Crash()
	Restart()
}

// Injector draws the fault schedule for one platform. Like the kernel it
// belongs to, it is not safe for concurrent use.
type Injector struct {
	k    *sim.Kernel
	spec Spec
	rng  *stats.Stream
	rec  *trace.Recorder

	counts map[string]uint64
	total  uint64
}

// NewInjector builds an injector for spec, drawing all randomness from
// rng (fork one off the platform seed so runs stay reproducible).
func NewInjector(k *sim.Kernel, spec Spec, rng *stats.Stream) *Injector {
	return &Injector{k: k, spec: spec, rng: rng, counts: map[string]uint64{}}
}

// SetRecorder mirrors every injected fault into the decision trace as a
// typed fault.inject record.
func (in *Injector) SetRecorder(r *trace.Recorder) { in.rec = r }

// Note counts one injected fault and traces it. Fault sites inside the
// injector call it themselves; external wiring (device wrapping in the
// platform) uses it to register standing faults.
func (in *Injector) Note(kind string, dom store.DomID, path string) {
	in.counts[kind]++
	in.total++
	if in.rec != nil {
		in.rec.Record(trace.Record{Kind: trace.KindFaultInject, Dom: int(dom), Path: path, Value: kind})
	}
}

// Counts returns a copy of the per-kind injection counters.
func (in *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Count reports injections of one fault kind.
func (in *Injector) Count(kind string) uint64 { return in.counts[kind] }

// Total reports all injections so far.
func (in *Injector) Total() uint64 { return in.total }

// Uncooperative decides — deterministically per domain — whether dom runs
// without a store driver. The platform consults it before enabling a
// guest; an uncooperative guest simply never registers, the exact shape a
// legacy image presents to the manager.
func (in *Injector) Uncooperative(dom store.DomID) bool {
	p := in.spec.Uncoop
	if p <= 0 {
		return false
	}
	// A lexical fork keyed on the domain id makes the draw a pure
	// function of (seed, dom): repeat calls agree and consume no shared
	// stream state.
	if p >= 1 || in.rng.Fork(fmt.Sprintf("uncoop/%d", dom)).Bool(p) {
		in.Note("uncoop", dom, "")
		return true
	}
	return false
}

// StoreHooks builds the store-level fault hooks (stale writes, dropped
// and delayed watch deliveries), or nil when the spec has none.
func (in *Injector) StoreHooks() *store.FaultHooks {
	s := in.spec
	if s.StaleWriteProb <= 0 && s.WatchDropProb <= 0 && s.WatchDelayProb <= 0 {
		return nil
	}
	h := &store.FaultHooks{}
	if s.StaleWriteProb > 0 {
		r := in.rng.Fork("stalewrite")
		h.DropWrite = func(dom store.DomID, path string) bool {
			if r.Bool(s.StaleWriteProb) {
				in.Note("stalewrite", dom, path)
				return true
			}
			return false
		}
	}
	if s.WatchDropProb > 0 || s.WatchDelayProb > 0 {
		r := in.rng.Fork("delivery")
		h.Delivery = func(dom store.DomID, path string) (sim.Duration, bool) {
			if s.WatchDropProb > 0 && r.Bool(s.WatchDropProb) {
				in.Note("watchdrop", dom, path)
				return 0, true
			}
			if s.WatchDelayProb > 0 && r.Bool(s.WatchDelayProb) {
				in.Note("watchdelay", dom, path)
				return 1 + sim.Duration(r.Int63n(int64(s.WatchDelayMax))), false
			}
			return 0, false
		}
	}
	return h
}

// SyncFault builds the per-guest stuck-sync predicate the driver consults
// on each flush order, or nil when the spec has none. A true draw means
// the guest received flush_now but its sync() never completes — the
// manager's flush deadline is the only way out.
func (in *Injector) SyncFault(dom store.DomID) func(disk string) bool {
	p := in.spec.StuckSyncProb
	if p <= 0 {
		return nil
	}
	r := in.rng.Fork(fmt.Sprintf("stucksync/%d", dom))
	return func(disk string) bool {
		if r.Bool(p) {
			in.Note("stucksync", dom, disk)
			return true
		}
		return false
	}
}

// ScheduleCrash arms the crash (and optional restart) schedule for one
// enabled driver. The crash draw is deterministic per domain.
func (in *Injector) ScheduleCrash(dom store.DomID, drv CrashRestarter) {
	s := in.spec
	if s.CrashFrac <= 0 {
		return
	}
	if s.CrashFrac < 1 && !in.rng.Fork(fmt.Sprintf("crash/%d", dom)).Bool(s.CrashFrac) {
		return
	}
	at := s.CrashAt
	if at <= 0 {
		at = sim.Second
	}
	in.k.After(at, func() {
		in.Note("crash", dom, "")
		drv.Crash()
	})
	if s.CrashRestart > 0 {
		in.k.After(at+s.CrashRestart, func() {
			in.Note("restart", dom, "")
			drv.Restart()
		})
	}
}
