// Package store implements the IOrchestra system store: a hierarchical,
// permission-checked key-value store with watches, equivalent to XenStore
// as the paper uses it (Sec. 3 and 4).
//
// Every domain registers configuration under /local/domain/<domid>/...;
// each VM may only access its own subtree while the hypervisor (domain 0)
// has access to everything. Watches deliver change notifications through
// the simulation kernel with a configurable notification latency, modelling
// the XenBus round trip; the store logic itself is ordinary control-plane
// code with no knowledge of the simulator beyond the clock.
//
// A watched write is the control plane's unit of work, so its path keeps
// nothing it allocates and does each piece of work once: a hot key's
// resolution is memoized (pathEntry) together with the hash term its
// current value contributes to the subtree hash, so a write hashes the
// new value only; and the notifications of one write travel in delivery
// records drawn from, and returned to, a free list the store owns.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"iorchestra/internal/sim"
	"iorchestra/internal/trace"
)

// DomID identifies a domain. Domain 0 is the privileged control domain
// (the hypervisor/driver domain in the paper's architecture).
type DomID int

// Dom0 is the privileged control domain.
const Dom0 DomID = 0

// Perm is an access level a domain holds on a node.
type Perm uint8

const (
	// PermNone grants nothing.
	PermNone Perm = iota
	// PermRead grants read access.
	PermRead
	// PermWrite grants write access (implies read, as in XenStore's "b").
	PermWrite
)

// Errors returned by store operations.
var (
	ErrNoEntry    = errors.New("store: no such entry")
	ErrPermission = errors.New("store: permission denied")
	ErrConflict   = errors.New("store: transaction conflict")
	ErrBadPath    = errors.New("store: malformed path")
)

type node struct {
	value    string
	owner    DomID
	perms    map[DomID]Perm // explicit grants beyond owner and Dom0
	children map[string]*node
	// sorted caches the sorted child names for List; every mutation of
	// children must reset it to nil. Directory shape changes far less
	// often than it is listed, so the sort happens once per change
	// instead of once per List.
	sorted  []string
	version uint64
}

func (n *node) child(name string) *node {
	if n.children == nil {
		return nil
	}
	return n.children[name]
}

// WatchID identifies a registered watch.
type WatchID int

type watch struct {
	id     WatchID
	dom    DomID
	prefix []string
	bucket string
	fn     func(path, value string)
	// removed is the delivery-time tombstone: XenStore drops events whose
	// watch was removed while they were queued. An atomic flag lets the
	// fan-out check it without retaking watchMu per delivery.
	removed atomic.Bool
}

// Store is the system store. Create with New.
//
// Node data follows the simulation kernel's single-goroutine discipline,
// but watch registration is also exercised from test harnesses and
// drivers living on other goroutines, so the watch table has its own
// lock: Watch, Unwatch and notification delivery are safe to interleave
// concurrently.
//
// Two pieces of per-write state are cached rather than rebuilt. Each
// pathCache entry holds the hash term of its node's current value (hval;
// writeEntry is the only place a value is assigned, and a path has one
// entry), so the subtree hash is updated from the cached old term and
// one hash of the new value. And fireWatches schedules delivery records
// from freeDeliveries: one record per run of equal-latency notifications,
// one kernel event per record, the record back on the list after its
// last callback — the (time, seq) dispatch order is exactly that of a
// closure per run, without the closure.
type Store struct {
	k             *sim.Kernel
	root          *node
	notifyLatency sim.Duration
	version       uint64

	// watchMu guards watches, watchBuckets and nextWatch. fireWatches
	// snapshots the table under the lock, and in-flight notifications
	// re-check registration under it at delivery time (XenStore drops
	// events whose watch was removed while they were queued).
	watchMu sync.Mutex
	watches map[WatchID]*watch
	// watchBuckets indexes watches by the /local/domain/<id> subtree
	// their prefix lives in ("" = structural prefixes that can match any
	// path), so fan-out scans only the watches a write can possibly
	// match instead of the whole table. Each bucket is kept in ascending
	// id order — ids are handed out monotonically, so registration is an
	// append — which makes the delivery order deterministic without a
	// per-fire sort. Buckets are indirected through a stable struct so
	// the path cache can hold the pointer and fan-out skips the map.
	watchBuckets map[string]*watchBucket
	// structWB is the "" bucket (structural prefixes), consulted on every
	// fire; held directly so the hot path never looks it up.
	structWB  *watchBucket
	nextWatch WatchID
	// matchScratch is fireWatches's reusable candidate buffer; safe
	// because fireWatches only runs on the kernel goroutine.
	matchScratch []*watch
	// partsScratch is splitScratch's reusable tokenization buffer, under
	// the same kernel-goroutine discipline.
	partsScratch []string
	// freeDeliveries is the delivery free list: fireWatches takes a record
	// per run of equal-latency notifications and the record puts itself
	// back after its last callback, so a watched write allocates nothing
	// it keeps. Kernel goroutine only (Write and the kernel's dispatch).
	freeDeliveries []*delivery
	// pathCache memoizes path resolution for the hot read/write keys: one
	// full-path lookup replaces tokenizing plus a map access per segment.
	// A node stays resolvable until a Remove covers it, so Remove is the
	// only invalidation point (AddDomain recreates a home under a fresh
	// node, but any cached descendants died with the Remove that made the
	// recreation possible). Only existing nodes are cached and a path has
	// one spelling (splitInto rejects the rest), so Remove's walk of the
	// subtree it deletes (dropSubtree) meets every entry it must drop.
	// Kernel-goroutine discipline, like the tree.
	pathCache map[string]*pathEntry
	// cacheGen counts Removes; Cursors compare it to know their pinned
	// entry survived (Removes are control-plane rare, so the occasional
	// full re-pin is cheap).
	cacheGen uint64

	// rec, when set, receives store.write and store.watch trace records.
	rec *trace.Recorder

	// faults, when set, lets a fault injector lose writes and delay or
	// drop watch deliveries (internal/fault). Hooks run on the kernel
	// goroutine, inside Write.
	faults *FaultHooks

	// Cheap-reconnect sync state (sync.go): rolling per-subtree content
	// hashes plus a bounded (version, path) mutation journal. Cells are
	// pointers so the path cache can pin a key's bucket cell and the
	// per-write fold skips the map.
	subHashes      map[string]*uint64
	journal        []journalEntry
	journalCap     int
	evictedThrough uint64

	// Stats counters exposed for overhead accounting.
	reads, writes, notifies uint64
	// filteredNotifies counts notifications withheld because the watching
	// domain may not read the written node (FilteredNotifies).
	filteredNotifies uint64
	// Fault accounting: writes silently lost and notifications dropped or
	// delayed by the installed FaultHooks.
	faultDroppedWrites, faultDroppedNotifies, faultDelayedNotifies uint64
}

// FaultHooks intercepts store traffic for fault injection. Either hook
// may be nil. They are consulted on the kernel goroutine only.
type FaultHooks struct {
	// DropWrite, when it returns true, makes Write succeed from the
	// writer's point of view while leaving the node's old value in place —
	// a stale/torn key. No watch fires for the lost write.
	DropWrite func(dom DomID, path string) bool
	// Delivery runs once per matched watch before a notification is
	// scheduled: extra is added to the notification latency, and drop
	// loses the event entirely (the watcher never hears about the write).
	Delivery func(dom DomID, path string) (extra sim.Duration, drop bool)
}

// SetFaultHooks installs (or, with nil, removes) fault-injection hooks.
func (s *Store) SetFaultHooks(h *FaultHooks) { s.faults = h }

// FaultStats reports writes lost and notifications dropped/delayed by the
// installed fault hooks.
func (s *Store) FaultStats() (droppedWrites, droppedNotifies, delayedNotifies uint64) {
	return s.faultDroppedWrites, s.faultDroppedNotifies, s.faultDelayedNotifies
}

// New returns an empty store bound to kernel k. notifyLatency is the delay
// between a write and delivery of watch callbacks (the XenBus event-channel
// round trip; tens of microseconds on the paper's hardware).
func New(k *sim.Kernel, notifyLatency sim.Duration) *Store {
	structWB := &watchBucket{}
	return &Store{
		k:             k,
		root:          &node{owner: Dom0},
		watches:       map[WatchID]*watch{},
		watchBuckets:  map[string]*watchBucket{"": structWB},
		structWB:      structWB,
		notifyLatency: notifyLatency,
	}
}

// watchBucket holds one bucket's watches behind a stable pointer: the
// slice header mutates under watchMu, the struct never moves, so cached
// references (pathEntry.wb, structWB) stay valid across registration.
type watchBucket struct {
	ws []*watch
}

// bucketFor returns (creating if needed) the bucket for key b. Callers
// must hold watchMu.
func (s *Store) bucketFor(b string) *watchBucket {
	wb := s.watchBuckets[b]
	if wb == nil {
		wb = &watchBucket{}
		s.watchBuckets[b] = wb
	}
	return wb
}

// hashCell returns (creating if needed) the subtree-hash cell for bucket
// b. Kernel-goroutine only, like the tree.
func (s *Store) hashCell(b string) *uint64 {
	if s.subHashes == nil {
		s.subHashes = map[string]*uint64{}
	}
	p := s.subHashes[b]
	if p == nil {
		p = new(uint64)
		s.subHashes[b] = p
	}
	return p
}

// split validates and tokenizes a path like /local/domain/3/virt-dev/xvda.
func split(path string) ([]string, error) {
	return splitInto(path, nil)
}

// Cold error constructors for the //hotpath functions below: fmt
// formatting reflects and allocates, so the hot operations build their
// (rare) errors through these out-of-line helpers. The hotpathalloc vet
// pass enforces the split (docs/LINTING.md).
func errBadPath(path string) error { return fmt.Errorf("%w: %q", ErrBadPath, path) }
func errNoEntry(path string) error { return fmt.Errorf("%w: %s", ErrNoEntry, path) }
func errPermission(dom DomID, verb, path string) error {
	return fmt.Errorf("%w: dom%d %s %s", ErrPermission, dom, verb, path)
}

// splitInto is split with a caller-supplied parts buffer, so the hot
// store operations tokenize without allocating. The returned segments
// are substrings of path.
//
// hotpath
func splitInto(path string, buf []string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, errBadPath(path)
	}
	if path == "/" {
		return nil, nil
	}
	parts := buf[:0]
	rest := path[1:]
	for {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			if rest == "" {
				return nil, errBadPath(path)
			}
			return append(parts, rest), nil
		}
		if i == 0 {
			return nil, errBadPath(path)
		}
		parts = append(parts, rest[:i])
		rest = rest[i+1:]
	}
}

// splitScratch tokenizes into the store's reusable parts buffer. Like
// matchScratch it leans on the kernel-goroutine discipline for node
// operations; callers must not retain the result past their own return
// (Watch, which retains its prefix, uses split instead).
//
// hotpath
func (s *Store) splitScratch(path string) ([]string, error) {
	parts, err := splitInto(path, s.partsScratch)
	if cap(parts) > cap(s.partsScratch) {
		s.partsScratch = parts
	}
	return parts, err
}

// Root is the top of the per-domain namespace, mirroring XenStore's
// /local/domain. It is the only sanctioned spelling of the prefix
// outside this package: the storekeys vet pass flags raw path literals
// everywhere else (docs/STORE_KEYS.md, docs/LINTING.md).
const Root = "/local/domain"

// DomainPath returns the canonical subtree root for a domain, mirroring
// XenStore's /local/domain/<domid>.
func DomainPath(dom DomID) string {
	return Root + "/" + strconv.Itoa(int(dom))
}

// PathDomain reports the domain owning path's /local/domain/<id>
// subtree. ok is false for paths at or above the domain level and for
// non-numeric children of /local/domain.
func PathDomain(path string) (DomID, bool) {
	const prefix = Root + "/"
	if len(path) <= len(prefix) || path[:len(prefix)] != prefix {
		return 0, false
	}
	rest := path[len(prefix):]
	end := len(rest)
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			end = i
			break
		}
	}
	id, err := strconv.Atoi(rest[:end])
	if err != nil || id < 0 {
		return 0, false
	}
	return DomID(id), true
}

// DiskPath returns the absolute path of a per-disk key under a domain's
// virt-dev subtree: /local/domain/<dom>/virt-dev/<disk>/<key>.
func DiskPath(dom DomID, disk, key string) string {
	return DomainPath(dom) + "/virt-dev/" + disk + "/" + key
}

// AddDomain creates the /local/domain/<dom> home directory owned by dom,
// the step the toolstack performs at domain creation in Xen. Without it a
// guest has nowhere it is allowed to write.
func (s *Store) AddDomain(dom DomID) {
	n := s.root
	path := ""
	for _, p := range []string{"local", "domain"} {
		path += "/" + p
		child := n.child(p)
		if child == nil {
			child = &node{owner: Dom0}
			if n.children == nil {
				n.children = map[string]*node{}
			}
			n.children[p] = child
			n.sorted = nil
			s.noteNode(strings.Split(path[1:], "/"), path, "")
		}
		n = child
	}
	name := strconv.Itoa(int(dom))
	if n.child(name) == nil {
		if n.children == nil {
			n.children = map[string]*node{}
		}
		n.children[name] = &node{owner: dom}
		n.sorted = nil
		home := Root + "/" + name
		s.noteNode([]string{"local", "domain", name}, home, "")
		// Journal the (re)created home so a client that pruned the subtree
		// after a Remove learns it is back on its next delta sync.
		s.journalAppend(s.version+1, home, false)
	}
}

func (s *Store) lookup(parts []string) *node {
	n := s.root
	for _, p := range parts {
		n = n.child(p)
		if n == nil {
			return nil
		}
	}
	return n
}

// pathEntry is one memoized resolution: the tokenized path, the node it
// names, the path's node-hash prefix state, and pinned pointers to the
// path's hash cell and watch bucket — everything a hot-key write needs,
// so the whole operation costs one map access. parts is owned by the
// entry (never a scratch alias).
type pathEntry struct {
	parts []string
	n     *node
	hpath uint64 // pathHashState(path): per-write hashing starts at the value
	// hval is mixString(hpath, n.value), the node's term as it stands in
	// *hash. A path has one entry and writeEntry is the only assignment
	// of n.value, so a write folds the cached term out and hashes the new
	// value alone.
	hval uint64
	hash *uint64 // subtree-hash cell for the path's bucket
	wb   *watchBucket
}

// cachePath memoizes a successful resolution. parts may alias a scratch
// buffer; the entry stores a private copy.
func (s *Store) cachePath(path string, parts []string, n *node) *pathEntry {
	if s.pathCache == nil {
		s.pathCache = map[string]*pathEntry{}
	}
	b := bucketOf(parts)
	e := &pathEntry{parts: append([]string(nil), parts...), n: n, hpath: pathHashState(path)}
	e.hval = mixString(e.hpath, n.value)
	e.hash = s.hashCell(b)
	s.watchMu.Lock()
	e.wb = s.bucketFor(b)
	s.watchMu.Unlock()
	s.pathCache[path] = e
	return e
}

// Cursor pins one path's resolution across repeated operations: the
// in-process bus handle keeps one per hot key, so a driver heartbeat
// costs a generation compare instead of hashing the absolute path on
// every store call. Obtain with Store.CursorFor; use from the kernel
// goroutine only, like every node operation.
type Cursor struct {
	path string
	e    *pathEntry
	gen  uint64
}

// CursorFor returns a cursor for path. The path need not exist yet; the
// cursor pins its resolution on first successful use.
func (s *Store) CursorFor(path string) *Cursor { return &Cursor{path: path} }

// Path reports the absolute path the cursor stands for.
func (c *Cursor) Path() string { return c.path }

// cursorEntry returns the pinned entry, re-pinning from the path cache
// after an invalidation (nil when the path has no cached resolution).
//
// hotpath
func (s *Store) cursorEntry(c *Cursor) *pathEntry {
	if c.e != nil && c.gen == s.cacheGen {
		return c.e
	}
	c.e, c.gen = s.pathCache[c.path], s.cacheGen
	return c.e
}

// WriteCursor is Write through a pinned cursor.
//
// hotpath
func (s *Store) WriteCursor(dom DomID, c *Cursor, value string) error {
	if e := s.cursorEntry(c); e != nil {
		return s.writeEntry(dom, e, c.path, value, -1)
	}
	if err := s.Write(dom, c.path, value); err != nil {
		return err
	}
	c.e, c.gen = s.pathCache[c.path], s.cacheGen
	return nil
}

// ReadCursor is Read through a pinned cursor.
//
// hotpath
func (s *Store) ReadCursor(dom DomID, c *Cursor) (string, error) {
	e := s.cursorEntry(c)
	if e == nil {
		v, err := s.Read(dom, c.path)
		if err == nil {
			c.e, c.gen = s.pathCache[c.path], s.cacheGen
		}
		return v, err
	}
	if !canRead(e.n, dom) {
		return "", errPermission(dom, "reading", c.path)
	}
	s.reads++
	return e.n.value, nil
}

// canRead reports whether dom may read node n. Dom0 reads everything; the
// owner reads its own nodes; explicit grants extend access.
func canRead(n *node, dom DomID) bool {
	if dom == Dom0 || n.owner == dom {
		return true
	}
	return n.perms[dom] >= PermRead
}

func canWrite(n *node, dom DomID) bool {
	if dom == Dom0 || n.owner == dom {
		return true
	}
	return n.perms[dom] >= PermWrite
}

// Read returns the value at path on behalf of dom.
//
// hotpath
func (s *Store) Read(dom DomID, path string) (string, error) {
	n, err := s.nodeAt(path)
	if err != nil {
		return "", err
	}
	if !canRead(n, dom) {
		return "", errPermission(dom, "reading", path)
	}
	s.reads++
	return n.value, nil
}

// nodeAt resolves path to its node through the path cache, memoizing a
// resolution it had to walk for.
//
// hotpath
func (s *Store) nodeAt(path string) (*node, error) {
	if n := s.pathNode(path); n != nil {
		return n, nil
	}
	parts, err := s.splitScratch(path)
	if err != nil {
		return nil, err
	}
	n := s.lookup(parts)
	if n == nil {
		return nil, errNoEntry(path)
	}
	s.cachePath(path, parts, n)
	return n, nil
}

// pathNode returns the memoized node for path, or nil on a cache miss.
//
// hotpath
func (s *Store) pathNode(path string) *node {
	if e := s.pathCache[path]; e != nil {
		return e.n
	}
	return nil
}

// Write sets the value at path on behalf of dom, creating intermediate
// nodes owned by dom as needed. Writing to another domain's subtree
// requires an explicit write grant on the closest existing ancestor.
func (s *Store) Write(dom DomID, path, value string) error {
	firstCreated := -1 // index of the shallowest node this write created
	e := s.pathCache[path]
	if e == nil {
		parts, err := s.splitScratch(path)
		if err != nil {
			return err
		}
		if len(parts) == 0 {
			return fmt.Errorf("%w: cannot write root", ErrBadPath)
		}
		n := s.root
		for i, p := range parts {
			child := n.child(p)
			if child == nil {
				if !canWrite(n, dom) {
					return fmt.Errorf("%w: dom%d creating under %s", ErrPermission, dom, path)
				}
				child = &node{owner: dom}
				if n.children == nil {
					n.children = map[string]*node{}
				}
				n.children[p] = child
				n.sorted = nil
				if firstCreated < 0 {
					firstCreated = i
				}
			}
			n = child
		}
		e = s.cachePath(path, parts, n)
	}
	return s.writeEntry(dom, e, path, value, firstCreated)
}

// writeEntry applies a write through a resolved cache entry; firstCreated
// is the index of the shallowest node the resolution created (-1 when the
// whole chain already existed).
//
// hotpath
func (s *Store) writeEntry(dom DomID, e *pathEntry, path, value string, firstCreated int) error {
	parts, n := e.parts, e.n
	if !canWrite(n, dom) {
		return errPermission(dom, "writing", path)
	}
	if s.faults != nil && s.faults.DropWrite != nil && s.faults.DropWrite(dom, path) {
		// The write is acknowledged but lost: the key keeps its stale
		// value and no watch fires, exactly a torn XenStore transaction.
		// Created intermediates (and an empty created leaf) do persist,
		// so they still enter the hash and journal.
		s.faultDroppedWrites++
		if firstCreated >= 0 {
			s.noteCreated(path, parts, firstCreated, s.version+1)
		}
		return nil
	}
	s.version++
	n.value = value
	n.version = s.version
	s.writes++
	if firstCreated >= 0 {
		s.noteCreated(path, parts, firstCreated, s.version)
	}
	// Fold the prior leaf content out of the subtree hash and the new
	// content in — the entry pins the bucket cell and remembers the term
	// it last folded in, so only the new value gets hashed.
	hval := mixString(e.hpath, value)
	*e.hash ^= e.hval ^ hval
	e.hval = hval
	s.journalAppend(s.version, path, false)
	if s.rec != nil {
		s.rec.Record(trace.Record{Kind: trace.KindStoreWrite, Dom: int(dom), Path: path, Value: value})
	}
	s.fireWatches(e.wb, parts, n, path, value)
	return nil
}

// SetRecorder mirrors every store write and delivered watch notification
// into the decision-trace recorder.
func (s *Store) SetRecorder(r *trace.Recorder) { s.rec = r }

// Remove deletes the node at path (and its subtree) on behalf of dom.
func (s *Store) Remove(dom DomID, path string) error {
	parts, err := s.splitScratch(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	parent := s.lookup(parts[:len(parts)-1])
	if parent == nil {
		return fmt.Errorf("%w: %s", ErrNoEntry, path)
	}
	name := parts[len(parts)-1]
	n := parent.child(name)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNoEntry, path)
	}
	if !canWrite(n, dom) {
		return fmt.Errorf("%w: dom%d removing %s", ErrPermission, dom, path)
	}
	s.cacheGen++
	s.dropSubtree(parts, path, n)
	delete(parent.children, name)
	parent.sorted = nil
	s.version++
	// Journal only the subtree root, flagged as a removal: sync clients
	// prune by prefix, even if the path is recreated later.
	s.journalAppend(s.version, path, true)
	// The node is gone: nil keeps the XenStore behavior of delivering the
	// removal to every matching watcher without a readability filter.
	s.watchMu.Lock()
	wb := s.bucketFor(bucketOf(parts))
	s.watchMu.Unlock()
	s.fireWatches(wb, parts, nil, path, "")
	return nil
}

// List returns the sorted child names under path readable by dom, as a
// slice of the caller's own: Children's copying form.
func (s *Store) List(dom DomID, path string) ([]string, error) {
	names, err := s.Children(dom, path)
	return append([]string(nil), names...), err
}

// Children is List without the copy: it returns the node's sorted child
// index itself. The slice is valid until that node's next mutation and is
// the store's — a caller encodes or scans it on the spot, under whatever
// serializes it with writers, and neither keeps nor writes it.
//
// hotpath
func (s *Store) Children(dom DomID, path string) ([]string, error) {
	n, err := s.nodeAt(path)
	if err != nil {
		return nil, err
	}
	if !canRead(n, dom) {
		return nil, errPermission(dom, "listing", path)
	}
	if n.sorted == nil && len(n.children) > 0 {
		n.sortChildren()
	}
	return n.sorted, nil
}

// sortChildren rebuilds the sorted child index after a shape change.
func (n *node) sortChildren() {
	n.sorted = make([]string, 0, len(n.children))
	for name := range n.children {
		n.sorted = append(n.sorted, name)
	}
	sort.Strings(n.sorted)
}

// Grant gives target the given permission on path. Only Dom0 or the node
// owner may change permissions (XenStore SET_PERMS semantics).
func (s *Store) Grant(dom DomID, path string, target DomID, perm Perm) error {
	parts, err := split(path)
	if err != nil {
		return err
	}
	n := s.lookup(parts)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNoEntry, path)
	}
	if dom != Dom0 && dom != n.owner {
		return fmt.Errorf("%w: dom%d setting perms on %s", ErrPermission, dom, path)
	}
	if n.perms == nil {
		n.perms = map[DomID]Perm{}
	}
	n.perms[target] = perm
	return nil
}

// Exists reports whether path names a node, regardless of readability.
func (s *Store) Exists(path string) bool {
	parts, err := s.splitScratch(path)
	if err != nil {
		return false
	}
	return s.lookup(parts) != nil
}

// Watch registers fn to be called (after the configured notification
// latency) whenever a node at or below prefix changes, provided dom can
// read the changed node. It returns an id for Unwatch. Matching follows
// XenStore: a watch on /a fires for writes to /a, /a/b, /a/b/c, ...
func (s *Store) Watch(dom DomID, prefix string, fn func(path, value string)) (WatchID, error) {
	parts, err := split(prefix)
	if err != nil {
		return 0, err
	}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	s.nextWatch++
	id := s.nextWatch
	b := bucketOf(parts)
	w := &watch{id: id, dom: dom, prefix: parts, bucket: b, fn: fn}
	s.watches[id] = w
	wb := s.bucketFor(b)
	wb.ws = append(wb.ws, w)
	return id, nil
}

// Unwatch removes a watch; unknown ids are ignored.
func (s *Store) Unwatch(id WatchID) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if w, ok := s.watches[id]; ok {
		w.removed.Store(true)
		delete(s.watches, id)
		if wb := s.watchBuckets[w.bucket]; wb != nil {
			for i, bw := range wb.ws {
				if bw.id == id {
					wb.ws = append(wb.ws[:i], wb.ws[i+1:]...)
					break
				}
			}
		}
	}
}

func hasPrefix(path, prefix []string) bool {
	if len(prefix) > len(path) {
		return false
	}
	for i, p := range prefix {
		if path[i] != p {
			return false
		}
	}
	return true
}

// delivery is one run of equal-latency notifications of one write: the
// watchers to call, in ascending id order, and the event they are told.
// Records are reused through Store.freeDeliveries; fire is the run
// method value, bound once when the record is made, so scheduling a
// delivery builds no closure.
type delivery struct {
	s           *Store
	ws          []*watch
	path, value string
	fire        func()
}

// takeDelivery pops a record off the free list (making one when the list
// is empty — a callback that re-enters Write while its own record is
// still running simply takes another) and loads it with the event.
//
// hotpath
func (s *Store) takeDelivery(path, value string) *delivery {
	var d *delivery
	if n := len(s.freeDeliveries); n > 0 {
		d = s.freeDeliveries[n-1]
		s.freeDeliveries = s.freeDeliveries[:n-1]
	} else {
		d = &delivery{s: s}
		d.fire = d.run
	}
	d.path, d.value = path, value
	return d
}

// run is the kernel event of a delivery: it calls the watchers, then
// hands the record back to the free list.
//
// hotpath
func (d *delivery) run() {
	s := d.s
	for _, w := range d.ws {
		// The watch may have been removed while the notification
		// was in flight; XenStore drops such events.
		if w.removed.Load() {
			continue
		}
		if s.rec != nil {
			s.rec.Record(trace.Record{Kind: trace.KindStoreWatch, Dom: int(w.dom), Path: d.path, Value: d.value})
		}
		w.fn(d.path, d.value)
	}
	clear(d.ws)
	d.ws = d.ws[:0]
	d.path, d.value = "", ""
	s.freeDeliveries = append(s.freeDeliveries, d)
}

// hotpath
func (s *Store) fireWatches(wb *watchBucket, parts []string, n *node, path, value string) {
	// Snapshot the candidate watches under the lock, then match and
	// schedule outside it so callbacks cannot deadlock against Watch/
	// Unwatch. Only the path's own domain bucket plus the structural
	// bucket can possibly match (watch prefixes in other domain buckets
	// diverge at /local/domain/<id>), so fan-out cost tracks the watches
	// on this subtree, not the whole table; the caller hands in the
	// path's bucket, already pinned by its cache entry. Buckets are
	// id-sorted, so a two-way merge yields the deterministic
	// ascending-id delivery order with no per-fire sort; matchScratch is
	// reused across fires (kernel goroutine only).
	s.watchMu.Lock()
	matched := s.matchScratch[:0]
	db, sb := wb.ws, s.structWB.ws
	if wb == s.structWB {
		sb = nil // structural path: db already is the structural bucket
	}
	for len(db) > 0 || len(sb) > 0 {
		if len(sb) == 0 || (len(db) > 0 && db[0].id < sb[0].id) {
			matched, db = append(matched, db[0]), db[1:]
		} else {
			matched, sb = append(matched, sb[0]), sb[1:]
		}
	}
	s.matchScratch = matched
	s.watchMu.Unlock()
	// The caller hands in the written node (nil for removals): the node is
	// the same for every watcher, only the per-watcher permission differs.
	//
	// Deliveries that share a latency ride one kernel event: they were
	// scheduled back-to-back for the same instant with consecutive
	// sequence numbers, so no other event can interleave them — running
	// the callbacks consecutively inside one event preserves the exact
	// dispatch order while cutting the calendar traffic of the fan-out
	// (every write notifies at least the manager and the guest driver).
	var run *delivery // the open run, scheduled when its latency ends
	runDelay := s.notifyLatency
	for _, w := range matched {
		if !hasPrefix(parts, w.prefix) {
			continue
		}
		if n != nil && !canRead(n, w.dom) {
			s.filteredNotifies++
			continue
		}
		delay := s.notifyLatency
		if s.faults != nil && s.faults.Delivery != nil {
			extra, drop := s.faults.Delivery(w.dom, path)
			if drop {
				s.faultDroppedNotifies++
				continue
			}
			if extra > 0 {
				s.faultDelayedNotifies++
				delay += extra
			}
		}
		if run != nil && delay != runDelay {
			s.k.After(runDelay, run.fire)
			run = nil
		}
		runDelay = delay
		s.notifies++
		if run == nil {
			run = s.takeDelivery(path, value)
		}
		run.ws = append(run.ws, w)
	}
	if run != nil {
		s.k.After(runDelay, run.fire)
	}
}

// Stats reports cumulative operation counts (reads, writes, notifications),
// used to account for framework overhead.
func (s *Store) Stats() (reads, writes, notifies uint64) {
	return s.reads, s.writes, s.notifies
}

// FilteredNotifies reports how many notifications the permission filter
// withheld: a watch matched a written node its domain may not read. A
// watcher that hears nothing from a key it expects shows up here (a
// Dom0-created node under a guest subtree needs a PermRead grant).
func (s *Store) FilteredNotifies() uint64 { return s.filteredNotifies }

// Version reports the store's global mutation counter: it advances on
// every applied Write or Remove. Snapshot bootstrap (internal/netstore)
// pairs a tree walk with the version so a reconnecting client knows how
// stale its copy is.
func (s *Store) Version() uint64 { return s.version }

// --- Typed convenience helpers -------------------------------------------

// WriteInt writes an integer value.
func (s *Store) WriteInt(dom DomID, path string, v int64) error {
	return s.Write(dom, path, strconv.FormatInt(v, 10))
}

// ReadInt reads an integer value; absent nodes return defaultV.
func (s *Store) ReadInt(dom DomID, path string, defaultV int64) (int64, error) {
	raw, err := s.Read(dom, path)
	return parseIntValue(raw, err, path, defaultV)
}

// WriteBool writes "1" or "0", the encoding Algorithms 1 and 2 use for
// has_dirty_pages, flush_now, congested and release_request.
func (s *Store) WriteBool(dom DomID, path string, v bool) error {
	return s.Write(dom, path, boolValue(v))
}

// ReadBool reads a boolean; absent nodes return false.
func (s *Store) ReadBool(dom DomID, path string) (bool, error) {
	return parseBoolValue(s.Read(dom, path))
}

// WriteFloat writes a float value.
func (s *Store) WriteFloat(dom DomID, path string, v float64) error {
	return s.Write(dom, path, strconv.FormatFloat(v, 'g', -1, 64))
}

// ReadFloat reads a float value; absent nodes return defaultV.
func (s *Store) ReadFloat(dom DomID, path string, defaultV float64) (float64, error) {
	raw, err := s.Read(dom, path)
	return parseFloatValue(raw, err, path, defaultV)
}

// Cursor-typed variants, sharing the exact parse semantics above — the
// in-process bus handle routes every typed operation through these.

// WriteIntCursor writes an integer value through a pinned cursor.
func (s *Store) WriteIntCursor(dom DomID, c *Cursor, v int64) error {
	return s.WriteCursor(dom, c, strconv.FormatInt(v, 10))
}

// ReadIntCursor reads an integer value; absent nodes return defaultV.
func (s *Store) ReadIntCursor(dom DomID, c *Cursor, defaultV int64) (int64, error) {
	raw, err := s.ReadCursor(dom, c)
	return parseIntValue(raw, err, c.path, defaultV)
}

// WriteBoolCursor writes "1" or "0" through a pinned cursor.
func (s *Store) WriteBoolCursor(dom DomID, c *Cursor, v bool) error {
	return s.WriteCursor(dom, c, boolValue(v))
}

// ReadBoolCursor reads a boolean; absent nodes return false.
func (s *Store) ReadBoolCursor(dom DomID, c *Cursor) (bool, error) {
	return parseBoolValue(s.ReadCursor(dom, c))
}

// WriteFloatCursor writes a float value through a pinned cursor.
func (s *Store) WriteFloatCursor(dom DomID, c *Cursor, v float64) error {
	return s.WriteCursor(dom, c, strconv.FormatFloat(v, 'g', -1, 64))
}

// ReadFloatCursor reads a float value; absent nodes return defaultV.
func (s *Store) ReadFloatCursor(dom DomID, c *Cursor, defaultV float64) (float64, error) {
	raw, err := s.ReadCursor(dom, c)
	return parseFloatValue(raw, err, c.path, defaultV)
}

func boolValue(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

func parseBoolValue(raw string, err error) (bool, error) {
	if errors.Is(err, ErrNoEntry) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return raw == "1" || raw == "true", nil
}

func parseIntValue(raw string, err error, path string, def int64) (int64, error) {
	if errors.Is(err, ErrNoEntry) {
		return def, nil
	}
	if err != nil {
		return def, err
	}
	v, perr := strconv.ParseInt(raw, 10, 64)
	if perr != nil {
		return def, fmt.Errorf("store: %s holds non-integer %q", path, raw)
	}
	return v, nil
}

func parseFloatValue(raw string, err error, path string, def float64) (float64, error) {
	if errors.Is(err, ErrNoEntry) {
		return def, nil
	}
	if err != nil {
		return def, err
	}
	v, perr := strconv.ParseFloat(raw, 64)
	if perr != nil {
		return def, fmt.Errorf("store: %s holds non-float %q", path, raw)
	}
	return v, nil
}
