package federation

import (
	"strconv"

	"iorchestra/internal/store"
)

// View is the store surface the federation consumes: a privileged
// (Dom0) absolute-path handle plus the hash-versioned subtree sync the
// migration handoff rides on. LocalView implements it in-process and
// *netstore.Client over the wire, so the same registry, placement and
// migration logic runs whether the cluster store is an object or a
// socket away.
type View interface {
	Read(path string) (string, error)
	Write(path, value string) error
	Remove(path string) error
	List(path string) ([]string, error)
	Grant(path string, target store.DomID, perm store.Perm) error
	Watch(prefix string, fn func(path, value string)) (store.WatchID, error)
	Unwatch(id store.WatchID)
	// SyncSubtree answers a catch-up request for one domain subtree
	// (store.SyncSubtree as Dom0): root must be a /local/domain/<id>
	// subtree root; prune markers lead the pairs.
	SyncSubtree(root string, since, known uint64) (store.SyncPage, error)
}

// LocalView adapts an in-process store to View with Dom0 privilege.
type LocalView struct {
	St *store.Store
}

var _ View = LocalView{}

// Read reads path as Dom0.
func (v LocalView) Read(path string) (string, error) { return v.St.Read(store.Dom0, path) }

// Write writes path as Dom0.
func (v LocalView) Write(path, value string) error { return v.St.Write(store.Dom0, path, value) }

// Remove deletes path (and its subtree) as Dom0.
func (v LocalView) Remove(path string) error { return v.St.Remove(store.Dom0, path) }

// List returns the sorted child names under path.
func (v LocalView) List(path string) ([]string, error) { return v.St.List(store.Dom0, path) }

// Grant gives target perm on path (XenStore SET_PERMS, as Dom0).
func (v LocalView) Grant(path string, target store.DomID, perm store.Perm) error {
	return v.St.Grant(store.Dom0, path, target, perm)
}

// Watch registers an edge-triggered prefix watch as Dom0.
func (v LocalView) Watch(prefix string, fn func(path, value string)) (store.WatchID, error) {
	return v.St.Watch(store.Dom0, prefix, fn)
}

// Unwatch removes a watch.
func (v LocalView) Unwatch(id store.WatchID) { v.St.Unwatch(id) }

// SyncSubtree answers a catch-up request against the local store as Dom0.
func (v LocalView) SyncSubtree(root string, since, known uint64) (store.SyncPage, error) {
	return v.St.SyncSubtree(store.Dom0, root, since, known)
}

// --- Typed read helpers over a View -----------------------------------------

// readInt reads an integer key, returning def when the key is absent or
// malformed (a half-written registry entry must not wedge placement).
func readInt(v View, path string, def int64) int64 {
	raw, err := v.Read(path)
	if err != nil {
		return def
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return def
	}
	return n
}

// readFloat reads a float key with a default, like readInt.
func readFloat(v View, path string, def float64) float64 {
	raw, err := v.Read(path)
	if err != nil {
		return def
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return def
	}
	return f
}

// readString reads a string key with a default.
func readString(v View, path, def string) string {
	raw, err := v.Read(path)
	if err != nil {
		return def
	}
	return raw
}

// itoa and ftoa are the store's canonical integer and float encodings
// (store.WriteInt / store.WriteFloat), spelled out here because a View
// exposes only the string surface.
func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
