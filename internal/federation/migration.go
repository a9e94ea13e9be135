package federation

import (
	"sort"
	"strings"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

// Live migration (docs/CLUSTER.md §4): a deterministic state machine of
// sim-timed phases. The guest keeps running through the pre-copy, so
// its store writes race the transfer; the post-freeze delta catch-up
// (hash-versioned SyncSubtree rounds, the netstore OpSync machinery)
// closes the race. Target liveness is re-checked at every phase
// boundary: a target that TTL-expires mid-migration aborts the transfer
// and restores the guest on the source.
//
//	start ──► pre-copy ──► freeze ──► catch-up ──► commit ──► done
//	             │            │          │  ▲         │
//	             ▼            ▼          ▼  └─(delta)  ▼
//	           abort        abort      abort         abort
//	                                 (diverged)  (source-dead: no restore)

// MigrationHooks is the guest-lifecycle surface the embedder supplies
// (the federated arrival testbed, or a real toolstack): the federation
// moves store state and capacity accounting; the hooks move the guest.
type MigrationHooks struct {
	// Freeze quiesces the guest on the source: stop its application and
	// record progress so Unfreeze can resume the remainder.
	Freeze func(uid string)
	// Create builds the frozen guest shell on the target host and
	// returns its new domain id.
	Create func(uid, target string) (store.DomID, error)
	// Remove retires the guest's source copy at commit, once its state
	// has moved: whatever the embedder attached to the guest lets go of
	// it, then the source host forgets it.
	Remove func(uid, source string, dom store.DomID)
	// Unfreeze resumes the guest on the target with its remaining work.
	Unfreeze func(uid, target string, dom store.DomID)
	// Restore resumes a frozen guest on the source after an abort.
	Restore func(uid string)
}

// SetMigrationHooks installs the guest-lifecycle hooks; migration (and
// the rebalancer) stays inert until they are set.
func (f *Federation) SetMigrationHooks(h MigrationHooks) {
	f.hooks = h
	f.hasHooks = true
}

// Migrating reports the uids of in-flight migrations, sorted.
func (f *Federation) Migrating() []string {
	out := make([]string, 0, len(f.migrating))
	for uid := range f.migrating {
		out = append(out, uid)
	}
	sort.Strings(out)
	return out
}

// Abort reasons recorded in cluster.migrate.abort traces.
const (
	abortTargetDead   = "target-dead"
	abortSourceDead   = "source-dead"
	abortDiverged     = "diverged"
	abortCreateFailed = "create-failed"
)

// migration is one in-flight transfer's state.
type migration struct {
	uid      string
	from, to string
	srcDom   store.DomID
	srcRoot  string
	start    sim.Time

	// Sync cursor: the source-store version/hash the collected nodes
	// reflect, and the collected subtree itself.
	version uint64
	hash    uint64
	nodes   map[string]string

	rounds int
	frozen bool
}

// Migrate starts a live migration of guest uid from host `from` to host
// `to`. It returns false (with no trace) when the request is malformed:
// unknown hosts, no hooks, the guest is elsewhere or already moving, or
// the target is already dead — a migration that never starts needs no
// abort. Progress and outcome arrive as cluster.migrate.* events.
func (f *Federation) Migrate(uid, from, to string) bool {
	if !f.hasHooks || from == to || f.migrating[uid] != nil {
		return false
	}
	if f.members[from] == nil || f.members[to] == nil || !f.reg.Live(to) {
		return false
	}
	if readString(f.view, store.ClusterGuestKey(uid, keyGuestHost), "") != from {
		return false
	}
	srcDom := store.DomID(readInt(f.view, store.ClusterGuestKey(uid, keyGuestDom), -1))
	if srcDom <= 0 || f.members[from].host.Guest(srcDom) == nil {
		return false
	}
	m := &migration{
		uid: uid, from: from, to: to,
		srcDom: srcDom, srcRoot: store.DomainPath(srcDom),
		start: f.k.Now(),
	}
	f.migrating[uid] = m
	f.rec.Record(trace.Record{
		Kind: trace.KindClusterMigrateStart, Path: uid,
		Host: from, Value: to,
	})
	f.k.After(f.cfg.MigrationStep, func() { f.migratePreCopy(m) })
	return true
}

// migratePreCopy snapshots the source subtree while the guest still
// runs; writes landing after the snapshot are caught by the post-freeze
// delta rounds.
func (f *Federation) migratePreCopy(m *migration) {
	if !f.reg.Live(m.to) {
		f.migrateAbort(m, abortTargetDead)
		return
	}
	// since > current version forces the full walk on the first round
	// (the journal cannot cover the future).
	page, err := f.members[m.from].view.SyncSubtree(m.srcRoot, ^uint64(0), 0)
	if err != nil {
		f.migrateAbort(m, abortSourceDead)
		return
	}
	n := m.apply(page)
	f.rec.Record(trace.Record{
		Kind: trace.KindClusterMigrateSync, Path: m.uid, Host: m.to,
		Value: page.Mode.String(), Size: int64(n),
	})
	f.k.After(f.cfg.MigrationStep, func() { f.migrateFreeze(m) })
}

// migrateFreeze quiesces the guest; from here until commit or abort it
// executes nowhere.
func (f *Federation) migrateFreeze(m *migration) {
	if !f.reg.Live(m.to) {
		f.migrateAbort(m, abortTargetDead)
		return
	}
	f.hooks.Freeze(m.uid)
	m.frozen = true
	f.k.After(f.cfg.MigrationStep, func() { f.migrateCatchUp(m) })
}

// migrateCatchUp drains post-snapshot mutations with hash-versioned
// delta rounds until the source subtree hash matches, then commits.
// Bounded rounds: a source that keeps mutating a frozen guest's subtree
// (a store fault, a rogue writer) aborts as diverged instead of looping.
func (f *Federation) migrateCatchUp(m *migration) {
	if !f.reg.Live(m.to) {
		f.migrateAbort(m, abortTargetDead)
		return
	}
	page, err := f.members[m.from].view.SyncSubtree(m.srcRoot, m.version, m.hash)
	if err != nil {
		f.migrateAbort(m, abortSourceDead)
		return
	}
	n := m.apply(page)
	f.rec.Record(trace.Record{
		Kind: trace.KindClusterMigrateSync, Path: m.uid, Host: m.to,
		Value: page.Mode.String(), Size: int64(n),
	})
	if page.Mode == store.SyncMatch {
		f.k.After(f.cfg.MigrationStep, func() { f.migrateCommit(m) })
		return
	}
	m.rounds++
	if m.rounds >= catchUpRounds {
		f.migrateAbort(m, abortDiverged)
		return
	}
	f.k.After(f.cfg.MigrationStep, func() { f.migrateCatchUp(m) })
}

// migrateCommit materializes the guest on the target: create the shell,
// replay the subtree under the new domain root (granting the guest
// write access, as the toolstack would with SET_PERMS), retire the
// source copy, and unfreeze on the target.
func (f *Federation) migrateCommit(m *migration) {
	if !f.reg.Live(m.to) {
		f.migrateAbort(m, abortTargetDead)
		return
	}
	if !f.reg.Live(m.from) {
		// The source died with the authoritative guest state; there is
		// nothing to restore onto. docs/CLUSTER.md §5 runbook.
		f.migrateAbort(m, abortSourceDead)
		return
	}
	dstDom, err := f.hooks.Create(m.uid, m.to)
	if err != nil {
		f.migrateAbort(m, abortCreateFailed)
		return
	}
	src, dst := f.members[m.from], f.members[m.to]
	dstRoot := store.DomainPath(dstDom)
	paths := make([]string, 0, len(m.nodes))
	for p := range m.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	moved := 0
	for _, p := range paths {
		rel := strings.TrimPrefix(p, m.srcRoot)
		if rel == "" && m.nodes[p] == "" {
			continue // the home node itself; Create already made it
		}
		dp := dstRoot + rel
		dst.view.Write(dp, m.nodes[p])
		dst.view.Grant(dp, dstDom, store.PermWrite)
		moved++
	}
	f.hooks.Remove(m.uid, m.from, m.srcDom)
	src.view.Remove(m.srcRoot)
	f.view.Write(store.ClusterGuestKey(m.uid, keyGuestHost), m.to)
	f.view.Write(store.ClusterGuestKey(m.uid, keyGuestDom), itoa(int64(dstDom)))
	if !src.agent.Stopped() {
		src.agent.PublishStats()
	}
	if !dst.agent.Stopped() {
		dst.agent.PublishStats()
	}
	f.hooks.Unfreeze(m.uid, m.to, dstDom)
	delete(f.migrating, m.uid)
	f.rec.Record(trace.Record{
		Kind: trace.KindClusterMigrateDone, Path: m.uid, Host: m.to,
		Size: int64(moved), Latency: f.k.Now() - m.start,
	})
}

// migrateAbort rolls the migration back: the source copy was never
// disturbed, so restoring is just unfreezing the guest where it stands.
// A dead source is the one unrecoverable case — the guest died with it,
// and its cluster record is removed.
func (f *Federation) migrateAbort(m *migration, reason string) {
	delete(f.migrating, m.uid)
	if reason == abortSourceDead {
		f.view.Remove(store.ClusterGuestPath(m.uid))
	} else if m.frozen {
		f.hooks.Restore(m.uid)
	}
	f.rec.Record(trace.Record{
		Kind: trace.KindClusterMigrateAbort, Path: m.uid,
		Host: m.from, Value: reason,
	})
}

// apply folds one sync page into the migration's collected subtree and
// advances its cursor; it returns the pairs applied.
func (m *migration) apply(page store.SyncPage) int {
	m.nodes = page.Apply(m.nodes)
	m.version, m.hash = page.Version, page.Hash
	return len(page.Pairs)
}
