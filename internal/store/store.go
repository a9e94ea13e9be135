// Package store implements the IOrchestra system store: a hierarchical,
// permission-checked key-value store with watches, equivalent to XenStore
// as the paper uses it (Sec. 3 and 4).
//
// Every domain registers configuration under /local/domain/<domid>/...;
// each VM may only access its own subtree while the hypervisor (domain 0)
// has access to everything. Watches deliver change notifications after a
// configurable notification latency, modelling the XenBus round trip. A
// store built on a simulation kernel delivers them on the kernel's events;
// one built without (New(nil, ...), the wire server's) queues them, and
// its owner runs the queue with Deliver, as XenStore's daemon fires a
// request's watches from the loop that served it. The store logic itself
// is ordinary control-plane code with no knowledge of the simulator beyond
// the clock.
//
// A watched write is the control plane's unit of work, so its path keeps
// nothing it allocates and does each piece of work once. A node is its
// own resolution: it carries its absolute path and its subtree's bucket
// (the watch list a write to it fans out to), and one index keyed by
// absolute path finds, in a single probe, every node a path
// string has named; a node created through a Cursor is reached through
// the cursor until a path string names it. A notification is a value in
// one FIFO ring the store owns, and the notifications due at one instant
// share one delivery record and one kernel event.
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
	// every node it detaches: that is how a Cursor learns the node it
	// pinned no longer stands for its path.
	b *bucket
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
// /local/domain/<id> subtree touches: the watches whose prefix lives in
// it. One bucket, structB, stands for every path at or above the domain
// level. Buckets sit behind a stable pointer that every node of the
// subtree holds, so a write finds its watchers without a lookup.
type bucket struct {
	// unindexed counts the subtree's live nodes the index does not hold
	// (Store.index); while it is 0, a path of the subtree that the index
	// misses names no node, and no child list is walked for it. It follows
	// the tree's kernel-goroutine discipline.
	unindexed int
	// ws is guarded by Store.watchMu and kept in ascending id order — ids
	// are handed out monotonically, so registration is an append — which
	// makes the delivery order deterministic without a per-fire sort.
	ws []*watch
}

// Store is the system store. Create with New.
//
// Node data follows the simulation kernel's single-goroutine discipline
// (without a kernel, whatever serializes the owner's calls), but watch
// registration is also exercised from test harnesses and drivers living
// on other goroutines, so the watch table has its own lock: Watch,
// Unwatch and notification delivery are safe to interleave concurrently.
//
// fireWatches queues each notification as a value in the store's note
// ring and counts it into the pending tail record when it is due at the
// same instant and no kernel event has been scheduled since the tail's
// own; otherwise it opens a record from freeDeliveries, which goes back
// on the list after its last callback. A fault-delayed notification
// rides a record holding its own notes. The pending list is kept in (due
// time, scheduling) order. On a kernel-backed store every record is one
// kernel event, and every such event calls the same function, which
// takes the record at the head of the list — the kernel's own (time,
// sequence) order, so the dispatch order is exactly that of one event
// per notification, without the events. A store without a kernel is
// drained by Deliver, which takes the same records in the same order.
type Store struct {
	// k, when set, triggers deliveries; nil leaves them to Deliver, and
	// now is then the delivery clock: the due time of the last record
	// Deliver took.
	k             *sim.Kernel
	now           sim.Time
	root          *node
	notifyLatency sim.Duration
	version       uint64

	// index maps an absolute path to its live node, the root under "/",
	// for every node a path string has named: structural nodes and domain
	// homes from their creation, a node a by-path operation created from
	// then on, and a node created through a Cursor from the first time a
	// by-path operation resolves it (lookup). Until then such a node is
	// reached by its cursor, or by walking child lists down from its
	// deepest indexed ancestor (resolve). unindexed counts those nodes
	// store-wide, so a store that has none (every wire server's) answers a
	// by-path miss at the one probe. A node stays indexed until a Remove
	// covers it, and a path has one spelling (checkPath rejects the rest),
	// so Remove's walk of the subtree it deletes meets every entry it must
	// drop: no dead node is indexed. Kernel-goroutine discipline, like the
	// tree.
	index     map[string]*node
	unindexed int

	// watchMu guards watches, buckets, every bucket's ws and nextWatch.
	// fireWatches snapshots the candidates under the lock, and in-flight
	// notifications re-check registration at delivery time (XenStore drops
	// events whose watch was removed while they were queued).
	watchMu sync.Mutex
	watches map[WatchID]*watch
	// buckets indexes the per-subtree buckets by domain id segment, so
	// fan-out scans only the watches a write can possibly match instead
	// of the whole table. It is consulted when a domain home is created
	// and when a watch is registered — never by a write.
	buckets map[string]*bucket
	// structB is the bucket of structural paths (at or above the domain
	// level), whose watches can match any path: consulted on every fire.
	structB   *bucket
	nextWatch WatchID
	// matchScratch is fireWatches's reusable candidate buffer; safe
	// because fireWatches only runs on the kernel goroutine.
	matchScratch []*watch
	// freeDeliveries is the delivery free list: fireWatches takes a record
	// when a notification cannot join the pending tail and deliver puts it
	// back after its last callback, so a watched write allocates nothing
	// it keeps. It holds at most maxFreeDeliveries. Kernel goroutine only
	// (Write and the kernel's dispatch), like everything below.
	freeDeliveries []*delivery
	// pendHead and pendTail are the ends of the list of scheduled, not yet
	// delivered records; deliverFn is deliver bound once, the function of
	// every delivery's kernel event (nil without a kernel).
	pendHead, pendTail *delivery
	deliverFn          func()
	// notes is the FIFO ring of every pending notification but the
	// fault-delayed ones, in the order their records are due:
	// notes[noteHead] is the next one deliver calls, and noteLen wait.
	notes             []note
	noteHead, noteLen int
	// notesLetGo is the length of the largest drained ring deliver has let
	// go of: a ring that regrows no larger serves a burst that recurs, and
	// is kept.
	notesLetGo int

	// rec, when set, receives store.write and store.watch trace records.
	rec *trace.Recorder

	// faults, when set, lets a fault injector lose writes and delay or
	// drop watch deliveries (internal/fault). Hooks run on the kernel
	// goroutine, inside Write.
	faults *FaultHooks

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

// New returns an empty store. notifyLatency is the delay between a write
// and delivery of watch callbacks (the XenBus event-channel round trip;
// tens of microseconds on the paper's hardware). The kernel is optional:
// on k, each run of deliveries is one kernel event; with k nil, the store
// keeps its own delivery clock, and its owner runs what a write queued by
// calling Deliver.
func New(k *sim.Kernel, notifyLatency sim.Duration) *Store {
	structB := &bucket{}
	root := &node{path: "/", owner: Dom0, b: structB}
	s := &Store{
		k:             k,
		root:          root,
		index:         map[string]*node{"/": root},
		watches:       map[WatchID]*watch{},
		buckets:       map[string]*bucket{"": structB},
		structB:       structB,
		notifyLatency: notifyLatency,
	}
	if k != nil {
		s.deliverFn = s.deliver
	}
	return s
}

// bucketOf maps a path to its bucket key: the owning domain's id segment
// (a substring of the path), or "" for structural nodes at or above the
// domain level.
func bucketOf(path string) string {
	const prefix = Root + "/"
	if !strings.HasPrefix(path, prefix) {
		return ""
	}
	id := path[len(prefix):]
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[:i]
	}
	return id
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

// Cold error constructors for the per-operation functions below: fmt
// formatting reflects and allocates, so the hot operations build their
// (rare) errors through these out-of-line helpers.
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
func under(path, prefix string) bool {
	if len(prefix) == 1 {
		return true // "/" covers everything
	}
	return len(path) >= len(prefix) && path[:len(prefix)] == prefix &&
		(len(path) == len(prefix) || path[len(prefix)] == '/')
}

// Root is the top of the per-domain namespace, mirroring XenStore's
// /local/domain. It is the only sanctioned spelling of the prefix
// outside this package: the storekeys rule flags raw path literals
// everywhere else (docs/STORE_KEYS.md, docs/LINTING.md).
const Root = "/local/domain"

// DomainPath returns the canonical subtree root for a domain, mirroring
// XenStore's /local/domain/<domid>.
func DomainPath(dom DomID) string {
	return Root + "/" + strconv.Itoa(int(dom))
}

// DiskPath returns the absolute path of a per-disk key under a domain's
// virt-dev subtree: /local/domain/<dom>/virt-dev/<disk>/<key>.
func DiskPath(dom DomID, disk, key string) string {
	return DomainPath(dom) + "/virt-dev/" + disk + "/" + key
}

// attach creates the node at path, owned by owner, as a child of parent,
// linked into the child list. A child of /local/domain opens its own
// bucket, every other node shares its parent's. A structural node or
// domain home is indexed, and so is every node a by-path operation
// creates; one a Cursor creates waits for a path string to name it.
func (s *Store) attach(parent *node, path string, owner DomID, byPath bool) *node {
	n := &node{path: path, owner: owner, b: parent.b, next: parent.kids}
	if parent.path == Root {
		n.b = s.bucketFor(n.name())
	}
	if n.next != nil {
		n.next.prev = n
	}
	parent.kids, parent.sorted = n, nil
	if byPath || parent.b == s.structB {
		s.index[path] = n
	} else {
		n.b.unindexed++
		s.unindexed++
	}
	return n
}

// EnsureRoot creates the structural /local/domain chain without creating
// any domain home, so a listing of the tree root has its spine before
// the first handshake. Idempotent; netstore calls it at server start.
func (s *Store) EnsureRoot() { s.domainsDir() }

// domainsDir returns the /local/domain node, creating the Dom0-owned
// chain down to it where missing.
func (s *Store) domainsDir() *node {
	n := s.index[Root]
	if n == nil {
		local := s.index[dirOf(Root)]
		if local == nil {
			local = s.attach(s.root, dirOf(Root), Dom0, true)
		}
		n = s.attach(local, Root, Dom0, true)
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
		s.attach(domains, home, dom, true)
	}
}

// Cursor pins one path's node across repeated operations: a guest's
// driver holds one per key it registers (inline, in its own fields), so a
// heartbeat or a manager's order costs a liveness check instead of hashing
// the absolute path on every store call. A Remove detaches the nodes it
// covers, and a cursor that finds its node detached resolves its path
// again — to the node a later create put there, never to the dead one.
// Obtain with CursorAt or Store.CursorFor; use from the kernel goroutine
// only, like every node operation.
type Cursor struct {
	path string
	n    *node
}

// CursorAt returns a cursor for path by value, for a holder that keeps
// its cursors inline — struct fields, slice elements — instead of one
// heap object per key. The path need not exist yet; the cursor pins its
// node on first successful use.
func CursorAt(path string) Cursor { return Cursor{path: path} }

// CursorFor is CursorAt behind a pointer.
func (s *Store) CursorFor(path string) *Cursor {
	c := CursorAt(path)
	return &c
}

// Path reports the absolute path the cursor stands for.
func (c *Cursor) Path() string { return c.path }

// pinned returns the cursor's node, resolving the path again when the
// pinned node was detached (nil when the path names no node). A node a
// cursor resolves stays as indexed as it was: the cursor holds it.
func (s *Store) pinned(c *Cursor) *node {
	if c.n == nil || !c.n.live() {
		c.n = nil
		if checkPath(c.path) == nil {
			if n, end := s.resolve(c.path, false); end == len(c.path) {
				c.n = n
			}
		}
	}
	return c.n
}

// WriteCursor is Write through a pinned cursor.
func (s *Store) WriteCursor(dom DomID, c *Cursor, value string) error {
	n := c.n
	if n == nil || !n.live() {
		var err error
		if n, err = s.ensure(dom, c.path, false); err != nil {
			return err
		}
		c.n = n
	}
	return s.writeNode(dom, n, value)
}

// ReadCursor is Read through a pinned cursor.
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

// nodeAt resolves path to its node, as lookup does.
func (s *Store) nodeAt(path string) (*node, error) {
	if n := s.lookup(path); n != nil {
		return n, nil
	}
	if err := checkPath(path); err != nil {
		return nil, err
	}
	return nil, errNoEntry(path)
}

// lookup resolves a path string to its node (nil when it names none, or
// is no valid path): one probe of the index, and a walk only when the
// probe misses in a store holding unindexed nodes. A node the walk finds
// is indexed from then on, so a path string pays the walk once.
func (s *Store) lookup(path string) *node {
	if n := s.index[path]; n != nil || s.unindexed == 0 || checkPath(path) != nil {
		return n
	}
	n, end := s.resolve(path, true)
	if end < len(path) {
		return nil
	}
	s.indexWalked(n)
	return n
}

// indexWalked indexes n, a node resolve walked to for a path string the
// index missed.
func (s *Store) indexWalked(n *node) {
	s.index[n.path] = n
	n.b.unindexed--
	s.unindexed--
}

// resolve finds path, a valid path: its node, with end == len(path), or,
// when path names no node, its deepest existing ancestor and the offset
// of the slash that follows it in path (0 for the root). probed says the
// caller has found path absent from the index. It starts from path's
// domain home when the store holds unindexed nodes, or else from the
// deepest indexed ancestor; then, while that subtree holds unindexed nodes, it walks
// child lists down, matching a child by the suffix its path adds to its
// parent's.
func (s *Store) resolve(path string, probed bool) (n *node, end int) {
	end = strings.LastIndexByte(path, '/')
	if home, h := s.walkHome(path); home != nil {
		n, end = home, h
	} else {
		if !probed {
			if n = s.index[path]; n != nil {
				return n, len(path)
			}
		}
		for {
			if n = s.index[path[:max(end, 1)]]; n != nil {
				break
			}
			end = strings.LastIndexByte(path[:end], '/')
		}
	}
	for n.b.unindexed > 0 && end < len(path) {
		next := len(path)
		if i := strings.IndexByte(path[end+1:], '/'); i >= 0 {
			next = end + 1 + i
		}
		c := n.kids
		for c != nil && (len(c.path) != next || c.path[end:] != path[end:next]) {
			c = c.next
		}
		if c == nil {
			break
		}
		n, end = c, next
	}
	return n, end
}

// walkHome returns the domain home path lies below, and the home path's
// length, when the home's subtree holds unindexed nodes: a walk from
// there costs one probe, where a climb would probe every missing level.
// nil for a path at or above the domain level, and in a store without
// unindexed nodes, which it leaves at the probes it takes today.
func (s *Store) walkHome(path string) (*node, int) {
	const prefix = Root + "/"
	if s.unindexed == 0 || !strings.HasPrefix(path, prefix) {
		return nil, 0
	}
	i := strings.IndexByte(path[len(prefix):], '/')
	if i < 0 {
		return nil, 0
	}
	h := len(prefix) + i
	if home := s.index[path[:h]]; home != nil && home.b.unindexed > 0 {
		return home, h
	}
	return nil, 0
}

// Write sets the value at path on behalf of dom, creating intermediate
// nodes owned by dom as needed. Writing to another domain's subtree
// requires an explicit write grant on the closest existing ancestor.
func (s *Store) Write(dom DomID, path, value string) error {
	n := s.index[path]
	if n == nil {
		var err error
		if n, err = s.ensure(dom, path, true); err != nil {
			return err
		}
	}
	return s.writeNode(dom, n, value)
}

// ensure returns the node at path, which the index does not hold (byPath:
// the caller probed it) or which a cursor no longer pins, creating it and
// every missing level above it, owned by dom — which needs write access
// at the creation point; the levels below it are its own. One resolve
// finds both the node and, failing that, where to create from. Each level
// is created under its own path: a prefix of the caller's string, sliced,
// never rebuilt — bringing a guest up is mostly leaf creates in an
// existing directory.
func (s *Store) ensure(dom DomID, path string, byPath bool) (*node, error) {
	if err := checkPath(path); err != nil {
		return nil, err
	}
	n, end := s.resolve(path, byPath)
	if end == len(path) {
		if byPath {
			s.indexWalked(n)
		}
		return n, nil
	}
	if !canWrite(n, dom) {
		return nil, errPermission(dom, "creating under", path)
	}
	for end < len(path) {
		if i := strings.IndexByte(path[end+1:], '/'); i >= 0 {
			end += 1 + i
		} else {
			end = len(path)
		}
		n = s.attach(n, path[:end], dom, byPath)
	}
	return n, nil
}

// writeNode applies a write to a resolved node.
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
		// Created intermediates (and an empty created leaf) do persist.
		s.faultDroppedWrites++
		return nil
	}
	s.version++
	n.value = value
	n.version = s.version
	s.writes++
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
	parent := s.lookup(dirOf(path))
	if parent.kids == n {
		parent.kids = n.next
	}
	parent.sorted = nil
	s.detach(n)
	s.version++
	// The node is gone: nil keeps the XenStore behavior of delivering the
	// removal to every matching watcher without a readability filter.
	s.fireWatches(b, nil, path, "")
	return nil
}

// detach takes a subtree out of the index (or, for a node it does not
// hold, out of the unindexed counts) and marks every node of it dead for
// whoever pinned one. The walk meets every node that dies with its one
// path, so a Remove costs O(subtree) however big the store is. A dead
// node lets go of its relatives, so a pinned one retains only itself.
func (s *Store) detach(n *node) {
	indexed := len(s.index)
	if delete(s.index, n.path); len(s.index) == indexed {
		n.b.unindexed--
		s.unindexed--
	}
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
func (s *Store) Exists(path string) bool { return s.lookup(path) != nil }

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

// note is one notification: the watcher to call and the event it is told.
type note struct {
	w           *watch
	path, value string
}

// delivery is one kernel event's worth of notifications (one step of
// Deliver's without a kernel): the n notes at the head of the store's
// note ring when its turn comes, or, for a fault-delayed run, the notes
// in own, which the ring cannot hold in due order. Records are reused
// through Store.freeDeliveries and wait their turn on the store's
// pending list, so a scheduled delivery is this one object: no closure,
// and no backing of its own for the notes of an undelayed write.
type delivery struct {
	n   int
	own []note // nil on a ring record
	due sim.Time
	// mark is the kernel's Scheduled() just after this record's event was
	// scheduled: while it has not moved, a note due at the same instant
	// joins this record instead of scheduling an event right behind it.
	mark       uint64
	next, prev *delivery // pending-list links
}

// maxFreeDeliveries bounds the delivery free list, and the note ring a
// drained burst leaves behind (deliver). A running host keeps at most
// about one record in flight per guest — flush_burst_1k's 1,000 guests on
// one store need up to 1,024 — and the list serves that by reuse. A
// bring-up burst, 15 notes per guest all pending until the kernel runs
// (3,000 for a 200-guest host), is let go past the bound instead of
// being held for the store's life.
const maxFreeDeliveries = 1024

// takeDelivery pops a record off the free list, or makes one when the
// list is empty (a callback that re-enters Write while its own record is
// still running simply takes another).
func (s *Store) takeDelivery() *delivery {
	if n := len(s.freeDeliveries); n > 0 {
		d := s.freeDeliveries[n-1]
		s.freeDeliveries = s.freeDeliveries[:n-1]
		return d
	}
	return new(delivery)
}

// clock is the store's notion of now: its kernel's, or, without one, the
// delivery clock Deliver advances.
func (s *Store) clock() sim.Time {
	if s.k != nil {
		return s.k.Now()
	}
	return s.now
}

// schedule queues d for delivery after delay. The kernel fires events in
// (time, scheduling order), and every delivery's event is the same
// function, so the pending list is kept in that order: d goes behind every
// record due no later. Deliveries share one latency unless a fault hook
// adds to it, so that is nearly always the tail. Without a kernel, the
// list is all there is: Deliver walks it.
func (s *Store) schedule(d *delivery, delay sim.Duration) {
	d.due = s.clock() + delay
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
	if s.k != nil {
		s.k.After(delay, s.deliverFn)
		d.mark = s.k.Scheduled()
	}
}

// queueNote queues one notification due after the store's notification
// latency. Such notes are due in the order they are queued, so they wait
// in the ring in the order their records are delivered. The note joins
// the pending tail when that is a ring record due at the same instant
// and, on a kernel-backed store, no event has been scheduled since the
// tail's own: an event of its own would fire right behind the tail's,
// with nothing between them in (time, sequence) order, so running it
// inside the tail's event keeps the dispatch order. Otherwise the note
// opens a record.
func (s *Store) queueNote(nt note) {
	t := s.pendTail
	if t == nil || t.own != nil || t.due != s.clock()+s.notifyLatency || (s.k != nil && s.k.Scheduled() != t.mark) {
		t = s.takeDelivery()
		s.schedule(t, s.notifyLatency)
	}
	if s.noteLen == len(s.notes) {
		grown := make([]note, 0, 2*len(s.notes)+1)
		grown = append(append(grown, s.notes[s.noteHead:]...), s.notes[:s.noteHead]...)
		s.notes, s.noteHead = grown[:cap(grown)], 0
	}
	i := s.noteHead + s.noteLen
	if i >= len(s.notes) {
		i -= len(s.notes)
	}
	s.notes[i] = nt
	s.noteLen++
	t.n++
}

// Deliver runs every delivery a store built without a kernel has queued,
// those its callbacks queue included, in (due time, scheduling) order,
// advancing the store's delivery clock to each record's due time before
// its callbacks run. That is what Kernel.Run does on a kernel holding only
// the store's deliveries, watch-delay faults included. A kernel-backed
// store delivers on its kernel's events and must not be drained here.
func (s *Store) Deliver() {
	for s.pendHead != nil {
		s.now = s.pendHead.due
		s.deliver()
	}
}

// deliver is one delivery, a kernel event or a step of Deliver: it takes
// the record whose turn it is off the pending list, calls the watchers of
// its notes, then hands the record back to the free list if the list has
// room. Once a burst has drained, it lets go of a note ring the burst grew
// past maxFreeDeliveries notes and past every ring let go before: a
// bring-up's ring is not held for the store's life, and a running host
// whose same-instant writes regrow a ring of a size let go before keeps
// it, instead of regrowing it on every such instant.
func (s *Store) deliver() {
	d := s.pendHead
	s.pendHead = d.next
	if d.next == nil {
		s.pendTail = nil
	} else {
		d.next.prev = nil
		d.next = nil
	}
	if d.own == nil {
		// A callback's write queues behind the ring's tail, so the record's
		// notes stay at the head however the ring grows meanwhile.
		for ; d.n > 0; d.n-- {
			nt := s.notes[s.noteHead]
			s.notes[s.noteHead] = note{}
			if s.noteHead++; s.noteHead == len(s.notes) {
				s.noteHead = 0
			}
			s.noteLen--
			s.call(nt)
		}
		if s.noteLen == 0 {
			// A drained ring starts over at its front, which the last
			// notes left warm in the cache.
			s.noteHead = 0
			if len(s.notes) > max(maxFreeDeliveries, s.notesLetGo) {
				s.notes, s.notesLetGo = nil, len(s.notes)
			}
		}
	} else {
		for _, nt := range d.own {
			s.call(nt)
		}
		d.own = nil
	}
	if len(s.freeDeliveries) < maxFreeDeliveries {
		s.freeDeliveries = append(s.freeDeliveries, d)
	}
}

// call tells one watcher its note, unless the watch was removed while the
// notification was in flight: XenStore drops such events.
func (s *Store) call(nt note) {
	if nt.w.removed.Load() {
		return
	}
	if s.rec != nil {
		s.rec.Record(trace.Record{Kind: trace.KindStoreWatch, Dom: int(nt.w.dom), Path: nt.path, Value: nt.value})
	}
	nt.w.fn(nt.path, nt.value)
}

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
	// An undelayed note goes to the ring (queueNote). Fault-delayed notes
	// of one delay that follow one another share a record, scheduled when
	// a note of another delay, or the end of the fan-out, closes the run —
	// each record's event thus takes the place in (time, sequence) order
	// that one event per note would have given its notes.
	var run *delivery // the open delayed run
	var runDelay sim.Duration
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
		s.notifies++
		nt := note{w: w, path: path, value: value}
		if delay == s.notifyLatency {
			s.queueNote(nt)
			continue
		}
		if run == nil {
			run, runDelay = s.takeDelivery(), delay
		}
		run.own = append(run.own, nt)
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
// every applied Write or Remove. Transactions validate against the
// per-node version a write stamps from it, and netstore's handshake
// reply carries it.
func (s *Store) Version() uint64 { return s.version }

// --- Typed convenience helpers -------------------------------------------

// WriteBool writes "1" or "0", the encoding Algorithms 1 and 2 use for
// has_dirty_pages, flush_now, congested and release_request.
func (s *Store) WriteBool(dom DomID, path string, v bool) error {
	return s.Write(dom, path, boolValue(v))
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
// bus handle and the guest driver's key table route every typed operation
// through these. They are the control plane's per-decision path, so they
// allocate no more than the value they write: a float is formatted on the
// stack and copied once, and a read of an absent key returns its default
// without building the ErrNoEntry the parse would discard.

// WriteIntCursor writes an integer value through a pinned cursor.
func (s *Store) WriteIntCursor(dom DomID, c *Cursor, v int64) error {
	return s.WriteCursor(dom, c, strconv.FormatInt(v, 10))
}

// WriteBoolCursor writes "1" or "0" through a pinned cursor.
func (s *Store) WriteBoolCursor(dom DomID, c *Cursor, v bool) error {
	return s.WriteCursor(dom, c, boolValue(v))
}

// ReadBoolCursor reads a boolean; absent nodes return false.
func (s *Store) ReadBoolCursor(dom DomID, c *Cursor) (bool, error) {
	if s.absent(c) {
		return false, nil
	}
	raw, err := s.ReadCursor(dom, c) // "" on an error
	return raw == "1" || raw == "true", err
}

// WriteFloatCursor writes a float value through a pinned cursor.
func (s *Store) WriteFloatCursor(dom DomID, c *Cursor, v float64) error {
	var b [32]byte
	return s.WriteCursor(dom, c, string(strconv.AppendFloat(b[:0], v, 'g', -1, 64)))
}

// ReadFloatCursor reads a float value; absent nodes return defaultV.
func (s *Store) ReadFloatCursor(dom DomID, c *Cursor, defaultV float64) (float64, error) {
	if s.absent(c) {
		return defaultV, nil
	}
	raw, err := s.ReadCursor(dom, c)
	return parseFloatValue(raw, err, c.path, defaultV)
}

// absent reports whether a well-formed cursor names no node: the read
// ReadCursor would answer with ErrNoEntry.
func (s *Store) absent(c *Cursor) bool { return s.pinned(c) == nil && checkPath(c.path) == nil }

func boolValue(v bool) string {
	if v {
		return "1"
	}
	return "0"
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
