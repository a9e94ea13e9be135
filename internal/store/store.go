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
// nothing it allocates and does each piece of work once. A node is its
// own resolution: it carries its absolute path, the hash term its current
// value contributes to the subtree hash (so a write hashes the new value
// only) and its subtree's bucket (hash cell and watch list), and one index
// keyed by absolute path finds it in a single probe. The notifications of
// one write travel in delivery records drawn from, and returned to, a
// free list the store owns.
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

// node is one key and everything an operation on it needs, so resolving a
// path — by the index, or by a Cursor that pinned the node earlier — is
// the whole lookup: no side entry, no tokenized copy of the path.
type node struct {
	// path is the node's absolute path and its key in Store.index. A
	// created leaf keeps the string it was written under and the levels
	// created with it are prefixes of that string, so a create allocates
	// no path of its own.
	path  string
	value string
	owner DomID
	perms map[DomID]Perm // explicit grants beyond owner and Dom0
	// Children form an intrusive list in no particular order (kids is its
	// head, next/prev link siblings): a create links in and a Remove links
	// out in O(1), and a directory costs no allocation of its own.
	kids, next, prev *node
	// sorted caches the sorted child names for List; every change to the
	// child list must reset it to nil. Directory shape changes far less
	// often than it is listed, so the sort happens once per change
	// instead of once per List.
	sorted  []string
	version uint64
	// b is the bucket of the /local/domain/<id> subtree the path lives in,
	// inherited from the parent at creation. Remove sets it to nil on
	// every node it detaches: that is how a Cursor, or the directory memo,
	// learns the node it pinned no longer stands for its path.
	b *bucket
	// hpath is pathHashState(path), so per-write hashing starts at the
	// value; hval is mixString(hpath, value), the node's term as it stands
	// in b.hash. writeNode is the only assignment of value, so a write
	// folds the cached term out and hashes the new value alone.
	hpath, hval uint64
}

// live reports whether n is still attached to the tree.
func (n *node) live() bool { return n.b != nil }

// name is the node's last path segment.
func (n *node) name() string { return n.path[strings.LastIndexByte(n.path, '/')+1:] }

// WatchID identifies a registered watch.
type WatchID int

type watch struct {
	id  WatchID
	dom DomID
	// prefix is a validated path, so "at or below prefix" is a string
	// comparison with a segment boundary (under): a path has one spelling.
	prefix string
	b      *bucket
	fn     func(path, value string)
	// removed is the delivery-time tombstone: XenStore drops events whose
	// watch was removed while they were queued. An atomic flag lets the
	// fan-out check it without retaking watchMu per delivery.
	removed atomic.Bool
}

// bucket is the per-subtree state a write to any path of one
// /local/domain/<id> subtree touches: the subtree's rolling content hash
// (sync.go) and the watches whose prefix lives in it. One bucket,
// structB, stands for every path at or above the domain level. Buckets
// sit behind a stable pointer that every node of the subtree holds, so a
// write folds its hash and finds its watchers without a lookup.
type bucket struct {
	// hash follows the tree's kernel-goroutine discipline.
	hash uint64
	// ws is guarded by Store.watchMu and kept in ascending id order — ids
	// are handed out monotonically, so registration is an append — which
	// makes the delivery order deterministic without a per-fire sort.
	ws []*watch
}

// Store is the system store. Create with New.
//
// Node data follows the simulation kernel's single-goroutine discipline,
// but watch registration is also exercised from test harnesses and
// drivers living on other goroutines, so the watch table has its own
// lock: Watch, Unwatch and notification delivery are safe to interleave
// concurrently.
//
// fireWatches schedules delivery records from freeDeliveries: one record
// per run of equal-latency notifications, one kernel event per record,
// the record back on the list after its last callback. Every such event
// calls the same function, which takes the record at the head of the
// pending list — kept in the kernel's own (time, sequence) order, so the
// dispatch order is exactly that of a closure per run, without the
// closure.
type Store struct {
	k             *sim.Kernel
	root          *node
	notifyLatency sim.Duration
	version       uint64

	// index holds every live node under its absolute path, the root under
	// "/": the one resolution of a path to its node. A node stays in it
	// until a Remove covers it, and a path has one spelling (checkPath
	// rejects the rest), so Remove's walk of the subtree it deletes meets
	// every entry it must drop. Kernel-goroutine discipline, like the tree.
	index map[string]*node
	// dir is the directory the last create made a node in. A guest's keys
	// arrive directory by directory, so the next create usually finds its
	// parent here instead of probing the index for it.
	dir *node

	// watchMu guards watches, buckets, every bucket's ws and nextWatch.
	// fireWatches snapshots the candidates under the lock, and in-flight
	// notifications re-check registration at delivery time (XenStore drops
	// events whose watch was removed while they were queued).
	watchMu sync.Mutex
	watches map[WatchID]*watch
	// buckets indexes the per-subtree buckets by domain id segment, so
	// fan-out scans only the watches a write can possibly match instead
	// of the whole table. It is consulted when a domain home is created,
	// when a watch is registered and by SubtreeHash — never by a write.
	buckets map[string]*bucket
	// structB is the bucket of structural paths (at or above the domain
	// level), whose watches can match any path: consulted on every fire.
	structB   *bucket
	nextWatch WatchID
	// matchScratch is fireWatches's reusable candidate buffer; safe
	// because fireWatches only runs on the kernel goroutine.
	matchScratch []*watch
	// freeDeliveries is the delivery free list: fireWatches takes a record
	// per run of equal-latency notifications and deliver puts it back after
	// its last callback, so a watched write allocates nothing it keeps.
	// Kernel goroutine only (Write and the kernel's dispatch).
	freeDeliveries []*delivery
	// pendHead and pendTail are the ends of the list of scheduled, not yet
	// delivered records; deliverFn is deliver bound once, the function of
	// every delivery's kernel event.
	pendHead, pendTail *delivery
	deliverFn          func()

	// rec, when set, receives store.write and store.watch trace records.
	rec *trace.Recorder

	// faults, when set, lets a fault injector lose writes and delay or
	// drop watch deliveries (internal/fault). Hooks run on the kernel
	// goroutine, inside Write.
	faults *FaultHooks

	// Cheap-reconnect sync state (sync.go): the buckets' rolling hashes
	// plus a bounded (version, path) mutation journal, a ring of
	// journalCap entries whose oldest is journal[journalHead] once full.
	journal        []journalEntry
	journalHead    int
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
	structB := &bucket{}
	root := &node{path: "/", owner: Dom0, b: structB}
	s := &Store{
		k:             k,
		root:          root,
		index:         map[string]*node{"/": root},
		dir:           root,
		watches:       map[WatchID]*watch{},
		buckets:       map[string]*bucket{"": structB},
		structB:       structB,
		notifyLatency: notifyLatency,
	}
	s.deliverFn = s.deliver
	return s
}

// bucketFor returns (creating if needed) the bucket of a domain id
// segment, as bucketOf spells it.
func (s *Store) bucketFor(id string) *bucket {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	b := s.buckets[id]
	if b == nil {
		b = &bucket{}
		s.buckets[id] = b
	}
	return b
}

// Cold error constructors for the //hotpath functions below: fmt
// formatting reflects and allocates, so the hot operations build their
// (rare) errors through these out-of-line helpers. The hotpathalloc vet
// pass enforces the split (docs/LINTING.md).
func errBadPath(path string) error { return fmt.Errorf("%w: %q", ErrBadPath, path) }
func errNoEntry(path string) error { return fmt.Errorf("%w: %s", ErrNoEntry, path) }
func errRoot(verb string) error    { return fmt.Errorf("%w: cannot %s root", ErrBadPath, verb) }
func errPermission(dom DomID, verb, path string) error {
	return fmt.Errorf("%w: dom%d %s %s", ErrPermission, dom, verb, path)
}

// checkPath validates a path like /local/domain/3/virt-dev/xvda: absolute,
// no empty segment, no trailing slash ("/" alone is the root). A valid
// path is the only spelling of its node.
func checkPath(path string) error {
	if path == "" || path[0] != '/' {
		return errBadPath(path)
	}
	if len(path) > 1 && (path[len(path)-1] == '/' || strings.Contains(path, "//")) {
		return errBadPath(path)
	}
	return nil
}

// dirOf returns the parent directory's path of a valid non-root path: the
// path up to its last slash, or "/" for a child of the root.
func dirOf(path string) string {
	return path[:max(strings.LastIndexByte(path, '/'), 1)]
}

// under reports whether path is at or below prefix, both valid paths: a
// string prefix that ends on a segment boundary, so /local/domain/1 does
// not cover /local/domain/10/x.
//
// hotpath
func under(path, prefix string) bool {
	if len(prefix) == 1 {
		return true // "/" covers everything
	}
	return len(path) >= len(prefix) && path[:len(prefix)] == prefix &&
		(len(path) == len(prefix) || path[len(prefix)] == '/')
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
	b := bucketOf(path)
	if b == "" {
		return 0, false
	}
	id, err := strconv.Atoi(b)
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

// attach creates the node at path, owned by owner, as a child of parent:
// linked into the child list and the index, its empty value folded into
// its bucket's hash. A child of /local/domain opens its own bucket, every
// other node shares its parent's. Journalling is the caller's.
func (s *Store) attach(parent *node, path string, owner DomID) *node {
	n := &node{path: path, owner: owner, b: parent.b, next: parent.kids, hpath: pathHashState(path)}
	if parent.path == Root {
		n.b = s.bucketFor(n.name())
	}
	n.hval = mixString(n.hpath, "")
	n.b.hash ^= n.hval
	if n.next != nil {
		n.next.prev = n
	}
	parent.kids, parent.sorted = n, nil
	s.index[path] = n
	return n
}

// EnsureRoot creates the structural /local/domain chain without creating
// any domain home, so a snapshot of the tree root has its spine before
// the first handshake. Idempotent; netstore calls it at server start.
func (s *Store) EnsureRoot() { s.domainsDir() }

// domainsDir returns the /local/domain node, creating the Dom0-owned
// chain down to it where missing.
func (s *Store) domainsDir() *node {
	n := s.index[Root]
	if n == nil {
		local := s.index[dirOf(Root)]
		if local == nil {
			local = s.attach(s.root, dirOf(Root), Dom0)
		}
		n = s.attach(local, Root, Dom0)
	}
	return n
}

// AddDomain creates the /local/domain/<dom> home directory owned by dom,
// the step the toolstack performs at domain creation in Xen. Without it a
// guest has nowhere it is allowed to write.
func (s *Store) AddDomain(dom DomID) {
	domains := s.domainsDir()
	home := DomainPath(dom)
	if s.index[home] == nil {
		s.attach(domains, home, dom)
		// Journal the (re)created home so a client that pruned the subtree
		// after a Remove learns it is back on its next delta sync.
		s.journalAppend(s.version+1, home, false)
	}
}

// Cursor pins one path's node across repeated operations: the in-process
// bus handle keeps one per hot key, so a driver heartbeat costs a liveness
// check instead of hashing the absolute path on every store call. A
// Remove detaches the nodes it covers, and a cursor that finds its node
// detached resolves its path again — to the node a later create put
// there, never to the dead one. Obtain with Store.CursorFor; use from the
// kernel goroutine only, like every node operation.
type Cursor struct {
	path string
	n    *node
}

// CursorFor returns a cursor for path. The path need not exist yet; the
// cursor pins its node on first successful use.
func (s *Store) CursorFor(path string) *Cursor { return &Cursor{path: path} }

// Path reports the absolute path the cursor stands for.
func (c *Cursor) Path() string { return c.path }

// pinned returns the cursor's node, resolving the path again when the
// pinned node was detached (nil when the path names no node).
//
// hotpath
func (s *Store) pinned(c *Cursor) *node {
	if c.n == nil || !c.n.live() {
		c.n = s.index[c.path]
	}
	return c.n
}

// WriteCursor is Write through a pinned cursor.
//
// hotpath
func (s *Store) WriteCursor(dom DomID, c *Cursor, value string) error {
	n := s.pinned(c)
	if n == nil {
		var err error
		if n, err = s.create(dom, c.path); err != nil {
			return err
		}
		c.n = n
	}
	return s.writeNode(dom, n, value)
}

// ReadCursor is Read through a pinned cursor.
//
// hotpath
func (s *Store) ReadCursor(dom DomID, c *Cursor) (string, error) {
	n := s.pinned(c)
	if n == nil {
		_, err := s.nodeAt(c.path) // which of the two ways a path names no node
		return "", err
	}
	if !canRead(n, dom) {
		return "", errPermission(dom, "reading", c.path)
	}
	s.reads++
	return n.value, nil
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

// nodeAt resolves path to its node: one probe of the index.
//
// hotpath
func (s *Store) nodeAt(path string) (*node, error) {
	if n := s.index[path]; n != nil {
		return n, nil
	}
	if err := checkPath(path); err != nil {
		return nil, err
	}
	return nil, errNoEntry(path)
}

// Write sets the value at path on behalf of dom, creating intermediate
// nodes owned by dom as needed. Writing to another domain's subtree
// requires an explicit write grant on the closest existing ancestor.
func (s *Store) Write(dom DomID, path, value string) error {
	n := s.index[path]
	if n == nil {
		var err error
		if n, err = s.create(dom, path); err != nil {
			return err
		}
	}
	return s.writeNode(dom, n, value)
}

// deepest returns the deepest existing ancestor of path, a valid path
// that names no node, and the offset of the slash that follows it in path
// (0 for the root).
func (s *Store) deepest(path string) (*node, int) {
	for end := len(path); ; {
		end = strings.LastIndexByte(path[:end], '/')
		dir := path[:max(end, 1)]
		if d := s.dir; d.live() && d.path == dir {
			return d, end
		}
		if n := s.index[dir]; n != nil {
			return n, end
		}
	}
}

// create makes the node at path, which the index does not hold, and every
// missing level above it, owned by dom — which needs write access at the
// creation point; the levels below it are its own. Each level is folded
// into its subtree hash and journalled at the version of the write it is
// part of, under its own path: a prefix of the caller's string, sliced,
// never rebuilt — bringing a guest up is mostly leaf creates in an
// existing directory.
func (s *Store) create(dom DomID, path string) (*node, error) {
	if err := checkPath(path); err != nil {
		return nil, err
	}
	n, end := s.deepest(path)
	if !canWrite(n, dom) {
		return nil, errPermission(dom, "creating under", path)
	}
	for end < len(path) {
		s.dir = n
		if i := strings.IndexByte(path[end+1:], '/'); i >= 0 {
			end += 1 + i
		} else {
			end = len(path)
		}
		n = s.attach(n, path[:end], dom)
		s.journalAppend(s.version+1, n.path, false)
	}
	return n, nil
}

// writeNode applies a write to a resolved node.
//
// hotpath
func (s *Store) writeNode(dom DomID, n *node, value string) error {
	if n == s.root {
		return errRoot("write")
	}
	if !canWrite(n, dom) {
		return errPermission(dom, "writing", n.path)
	}
	if s.faults != nil && s.faults.DropWrite != nil && s.faults.DropWrite(dom, n.path) {
		// The write is acknowledged but lost: the key keeps its stale
		// value and no watch fires, exactly a torn XenStore transaction.
		// Created intermediates (and an empty created leaf) do persist:
		// create already put them in the hash and the journal.
		s.faultDroppedWrites++
		return nil
	}
	s.version++
	n.value = value
	n.version = s.version
	s.writes++
	// Fold the prior content out of the subtree hash and the new content
	// in — the node holds its bucket and remembers the term it last folded
	// in, so only the new value gets hashed.
	hval := mixString(n.hpath, value)
	n.b.hash ^= n.hval ^ hval
	n.hval = hval
	s.journalAppend(s.version, n.path, false)
	if s.rec != nil {
		s.rec.Record(trace.Record{Kind: trace.KindStoreWrite, Dom: int(dom), Path: n.path, Value: value})
	}
	s.fireWatches(n.b, n, n.path, value)
	return nil
}

// SetRecorder mirrors every store write and delivered watch notification
// into the decision-trace recorder.
func (s *Store) SetRecorder(r *trace.Recorder) { s.rec = r }

// Remove deletes the node at path (and its subtree) on behalf of dom.
func (s *Store) Remove(dom DomID, path string) error {
	n, err := s.nodeAt(path)
	if err != nil {
		return err
	}
	if n == s.root {
		return errRoot("remove")
	}
	if !canWrite(n, dom) {
		return errPermission(dom, "removing", path)
	}
	b := n.b
	if n.next != nil {
		n.next.prev = n.prev
	}
	if n.prev != nil {
		n.prev.next = n.next
	}
	parent := s.index[dirOf(path)]
	if parent.kids == n {
		parent.kids = n.next
	}
	parent.sorted = nil
	s.detach(n)
	s.version++
	// Journal only the subtree root, flagged as a removal: sync clients
	// prune by prefix, even if the path is recreated later.
	s.journalAppend(s.version, path, true)
	// The node is gone: nil keeps the XenStore behavior of delivering the
	// removal to every matching watcher without a readability filter.
	s.fireWatches(b, nil, path, "")
	return nil
}

// detach takes a subtree out of the index and its terms out of the bucket
// hashes, and marks every node of it dead for whoever pinned one. The
// walk meets every node that dies with its one path, so a Remove costs
// O(subtree) however big the store is; XOR makes the order irrelevant. A
// dead node lets go of its relatives, so a pinned one retains only itself.
func (s *Store) detach(n *node) {
	n.b.hash ^= n.hval
	delete(s.index, n.path)
	for c := n.kids; c != nil; {
		next := c.next
		s.detach(c)
		c = next
	}
	n.b, n.kids, n.next, n.prev = nil, nil, nil, nil
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
	if n.sorted == nil && n.kids != nil {
		n.sortChildren()
	}
	return n.sorted, nil
}

// sortChildren rebuilds the sorted child index after a shape change.
func (n *node) sortChildren() {
	for c := n.kids; c != nil; c = c.next {
		n.sorted = append(n.sorted, c.name())
	}
	sort.Strings(n.sorted)
}

// Grant gives target the given permission on path. Only Dom0 or the node
// owner may change permissions (XenStore SET_PERMS semantics).
func (s *Store) Grant(dom DomID, path string, target DomID, perm Perm) error {
	n, err := s.nodeAt(path)
	if err != nil {
		return err
	}
	if dom != Dom0 && dom != n.owner {
		return errPermission(dom, "setting perms on", path)
	}
	if n.perms == nil {
		n.perms = map[DomID]Perm{}
	}
	n.perms[target] = perm
	return nil
}

// Exists reports whether path names a node, regardless of readability.
func (s *Store) Exists(path string) bool { return s.index[path] != nil }

// Watch registers fn to be called (after the configured notification
// latency) whenever a node at or below prefix changes, provided dom can
// read the changed node. It returns an id for Unwatch. Matching follows
// XenStore: a watch on /a fires for writes to /a, /a/b, /a/b/c, ...
func (s *Store) Watch(dom DomID, prefix string, fn func(path, value string)) (WatchID, error) {
	if err := checkPath(prefix); err != nil {
		return 0, err
	}
	b := s.bucketFor(bucketOf(prefix))
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	s.nextWatch++
	w := &watch{id: s.nextWatch, dom: dom, prefix: prefix, b: b, fn: fn}
	s.watches[w.id] = w
	b.ws = append(b.ws, w)
	return w.id, nil
}

// Unwatch removes a watch; unknown ids are ignored.
func (s *Store) Unwatch(id WatchID) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if w, ok := s.watches[id]; ok {
		w.removed.Store(true)
		delete(s.watches, id)
		for i, bw := range w.b.ws {
			if bw == w {
				w.b.ws = append(w.b.ws[:i], w.b.ws[i+1:]...)
				break
			}
		}
	}
}

// delivery is one run of equal-latency notifications of one write: the
// watchers to call, in ascending id order, and the event they are told.
// Records are reused through Store.freeDeliveries and wait their turn on
// the store's pending list, so a scheduled delivery is this one object:
// no closure, and no separate backing for the usual one or two watchers.
type delivery struct {
	ws          []*watch
	path, value string
	due         sim.Time
	next, prev  *delivery // pending-list links
	first       [2]*watch // ws's backing until a third watcher matches
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
		d = new(delivery)
		d.ws = d.first[:0]
	}
	d.path, d.value = path, value
	return d
}

// schedule queues d for delivery after delay. The kernel fires events in
// (time, scheduling order), and every delivery's event is the same
// function, so the pending list is kept in that order: d goes behind every
// record due no later. Deliveries share one latency unless a fault hook
// adds to it, so that is nearly always the tail.
//
// hotpath
func (s *Store) schedule(d *delivery, delay sim.Duration) {
	d.due = s.k.Now() + delay
	after := s.pendTail
	for after != nil && after.due > d.due {
		after = after.prev
	}
	d.prev = after
	if after == nil {
		d.next, s.pendHead = s.pendHead, d
	} else {
		d.next, after.next = after.next, d
	}
	if d.next == nil {
		s.pendTail = d
	} else {
		d.next.prev = d
	}
	s.k.After(delay, s.deliverFn)
}

// deliver is the kernel event of a delivery: it takes the record whose
// turn it is off the pending list, calls the watchers, then hands the
// record back to the free list.
//
// hotpath
func (s *Store) deliver() {
	d := s.pendHead
	s.pendHead = d.next
	if d.next == nil {
		s.pendTail = nil
	} else {
		d.next.prev = nil
		d.next = nil
	}
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
func (s *Store) fireWatches(b *bucket, n *node, path, value string) {
	// Snapshot the candidate watches under the lock, then match and
	// schedule outside it so callbacks cannot deadlock against Watch/
	// Unwatch. Only the path's own domain bucket plus the structural
	// bucket can possibly match (watch prefixes in other domain buckets
	// diverge at /local/domain/<id>), so fan-out cost tracks the watches
	// on this subtree, not the whole table; the caller hands in the
	// path's bucket, which the written node holds. Buckets are
	// id-sorted, so a two-way merge yields the deterministic
	// ascending-id delivery order with no per-fire sort; matchScratch is
	// reused across fires (kernel goroutine only).
	s.watchMu.Lock()
	matched := s.matchScratch[:0]
	db, sb := b.ws, s.structB.ws
	if b == s.structB {
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
		if !under(path, w.prefix) {
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
			s.schedule(run, runDelay)
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
		s.schedule(run, runDelay)
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
