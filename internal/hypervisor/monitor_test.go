package hypervisor

import (
	"testing"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
)

// The FuzzDirtyIndex script's operations, one per two-byte step: the
// first byte is the operation plus, shifted by three, the entry it acts
// on; the second is its argument.
const (
	dirtyOn     = iota // ObserveDirty(e, true)
	dirtyOff           // ObserveDirty(e, false)
	dirtyNrSet         // ObserveNrDirty(e, 64·(arg%8)): up, equal or down
	dirtyNrStep        // ObserveNrDirty(e, Nr + arg%5 − 2), floored at 0
	dirtyForget        // Forget(e)
	dirtyWait          // the clock moves arg%201 ms: inside the settle window
	dirtySettle        // the clock moves 201 + arg ms: past it
	dirtyBest          // BestDirty, rejecting each dom d whose bit d is set in arg; nil ok at 0xff
)

// FuzzDirtyIndex holds the Monitor's dirty slice to its entries and
// BestDirty to a reference scan. The input is a script over six entries
// (doms 1–3, disks xvda and xvdb); after every step the slice must hold
// exactly the entries with dirty pages, each at the slot it records, and
// every BestDirty must return what the scan over all six returns: the
// most dirty pages among observed, dirty entries whose last growth is
// older than the settle window, ties to the lowest (dom, disk), rejected
// doms skipped — or none rejected, with the nil ok the bench probe
// passes.
func FuzzDirtyIndex(f *testing.F) {
	step := func(op, entry, arg byte) []byte { return []byte{op | entry<<3, arg} }
	script := func(steps ...[]byte) []byte {
		var b []byte
		for _, s := range steps {
			b = append(b, s...)
		}
		return b
	}
	// Two settled entries, the leader shrinks below the other.
	f.Add(script(step(dirtyOn, 0, 0), step(dirtyNrSet, 0, 3), step(dirtyOn, 2, 0), step(dirtyNrSet, 2, 2),
		step(dirtySettle, 0, 0), step(dirtyBest, 0, 0), step(dirtyNrSet, 0, 1), step(dirtyBest, 0, 0)))
	// A grown entry settles: mid-burst until the window has passed.
	f.Add(script(step(dirtyOn, 4, 0), step(dirtyNrStep, 4, 4), step(dirtyWait, 0, 200), step(dirtyBest, 0, 0),
		step(dirtySettle, 0, 0), step(dirtyBest, 0, 0)))
	// Ties, a rejected dom, a forgotten and a cleaned entry.
	f.Add(script(step(dirtyOn, 0, 0), step(dirtyOn, 1, 0), step(dirtyNrSet, 0, 1), step(dirtyNrSet, 1, 1),
		step(dirtyOn, 5, 0), step(dirtyNrSet, 5, 1), step(dirtySettle, 0, 0), step(dirtyBest, 0, 1<<1),
		step(dirtyForget, 0, 0), step(dirtyBest, 0, 0), step(dirtyOff, 1, 0), step(dirtyNrStep, 5, 2),
		step(dirtyBest, 0, 0), step(dirtySettle, 0, 9), step(dirtyBest, 0, 1<<3)))
	// A count before the presence bit, and a re-dirtied entry.
	f.Add(script(step(dirtyNrSet, 3, 5), step(dirtyOn, 3, 0), step(dirtyNrStep, 3, 4), step(dirtySettle, 0, 0),
		step(dirtyOff, 3, 0), step(dirtyOn, 3, 0), step(dirtyBest, 0, 0)))
	// A clean entry leaves the middle of the slice; nil ok rejects none.
	f.Add(script(step(dirtyOn, 0, 0), step(dirtyOn, 2, 0), step(dirtyOn, 4, 0), step(dirtyNrSet, 4, 6),
		step(dirtySettle, 0, 0), step(dirtyOff, 2, 0), step(dirtyBest, 0, 0xff), step(dirtyForget, 0, 0),
		step(dirtyBest, 0, 0xff)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		k := sim.NewKernel()
		mo := (&Host{k: k}).Monitor()
		var entries [6]DirtyEntry
		for i := range entries {
			entries[i] = NewDirtyEntry(store.DomID(1+i/2), [2]string{"xvda", "xvdb"}[i%2])
		}
		for i := 0; i+1 < len(data); i += 2 {
			e, arg := &entries[int(data[i]>>3)%len(entries)], data[i+1]
			switch data[i] & 7 {
			case dirtyOn:
				mo.ObserveDirty(e, true)
			case dirtyOff:
				mo.ObserveDirty(e, false)
			case dirtyNrSet:
				mo.ObserveNrDirty(e, 64*int64(arg%8))
			case dirtyNrStep:
				mo.ObserveNrDirty(e, max(0, e.st.Nr+int64(arg%5)-2))
			case dirtyForget:
				mo.Forget(e)
			case dirtyWait:
				k.RunUntil(k.Now() + sim.Time(arg%201)*sim.Millisecond)
			case dirtySettle:
				k.RunUntil(k.Now() + (201+sim.Time(arg))*sim.Millisecond)
			case dirtyBest:
				ok := func(d store.DomID) bool { return arg&(1<<d) == 0 }
				if arg == 0xff {
					ok = nil
				}
				dom, disk, nr, found := mo.BestDirty(k.Now(), ok)
				want := scanBestDirty(entries[:], k.Now(), ok)
				if got := [4]any{dom, disk, nr, found}; got != want {
					t.Fatalf("step %d: BestDirty = %v, the scan = %v", i/2, got, want)
				}
			}
			checkDirtyIndex(t, i/2, mo, entries[:])
		}
	})
}

// scanBestDirty is Algorithm 1's argmax as a plain scan over every
// entry: first wins, so equal counts go to the lowest (dom, disk).
func scanBestDirty(entries []DirtyEntry, now sim.Time, ok func(store.DomID) bool) [4]any {
	var best *DirtyEntry
	for i := range entries {
		e := &entries[i]
		st, observed := e.State()
		if !observed || !st.HasDirty || now-st.LastGrow <= dirtySettleWindow || ok != nil && !ok(e.dom) {
			continue
		}
		if best == nil || st.Nr > best.st.Nr ||
			st.Nr == best.st.Nr && (e.dom < best.dom || e.dom == best.dom && e.disk < best.disk) {
			best = e
		}
	}
	if best == nil {
		return [4]any{store.DomID(0), "", int64(0), false}
	}
	return [4]any{best.dom, best.disk, best.st.Nr, true}
}

// checkDirtyIndex fails unless the Monitor's dirty slice holds exactly
// the dirty entries, each once and at the slot it records.
func checkDirtyIndex(t *testing.T, step int, mo *Monitor, entries []DirtyEntry) {
	t.Helper()
	dirty := 0
	for i := range entries {
		e := &entries[i]
		if !e.st.HasDirty {
			if e.pos != -1 {
				t.Fatalf("step %d: clean (%d, %s) claims slot %d", step, e.dom, e.disk, e.pos)
			}
			continue
		}
		dirty++
		if e.pos < 0 || e.pos >= len(mo.dirty) || mo.dirty[e.pos] != e {
			t.Fatalf("step %d: dirty (%d, %s) claims slot %d it does not hold", step, e.dom, e.disk, e.pos)
		}
	}
	if len(mo.dirty) != dirty || mo.AnyDirty() != (dirty > 0) {
		t.Fatalf("step %d: the slice holds %d, AnyDirty %v; %d entries dirty", step, len(mo.dirty), mo.AnyDirty(), dirty)
	}
}
