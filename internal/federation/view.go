package federation

import (
	"strconv"

	"iorchestra/internal/store"
)

// View is the store surface the registry schema and placement read and
// write: a privileged (Dom0) absolute-path handle. LocalView implements
// it in-process and *netstore.Client over the wire.
type View interface {
	Read(path string) (string, error)
	Write(path, value string) error
	List(path string) ([]string, error)
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

// List returns the sorted child names under path.
func (v LocalView) List(path string) ([]string, error) { return v.St.List(store.Dom0, path) }

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
