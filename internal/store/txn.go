package store

import "fmt"

// Txn is an optimistic transaction, mirroring XenStore's
// TRANSACTION_START/END: reads are tracked, writes are buffered, and Commit
// fails with ErrConflict if any node read or written during the transaction
// changed underneath it, in which case the caller retries.
type Txn struct {
	s    *Store
	dom  DomID
	done bool

	readSet  map[string]uint64  // path -> version observed (0 = absent)
	writeSet map[string]*string // nil value = remove
	order    []string           // write order, for deterministic watch firing
}

// Begin starts a transaction on behalf of dom.
func (s *Store) Begin(dom DomID) *Txn {
	return &Txn{
		s:        s,
		dom:      dom,
		readSet:  map[string]uint64{},
		writeSet: map[string]*string{},
	}
}

func (t *Txn) versionOf(path string) uint64 {
	if n := t.s.lookup(path); n != nil {
		return n.version
	}
	return 0
}

// Read reads within the transaction, observing earlier buffered writes.
func (t *Txn) Read(path string) (string, error) {
	if t.done {
		return "", fmt.Errorf("store: use of finished transaction")
	}
	if v, ok := t.writeSet[path]; ok {
		if v == nil {
			return "", fmt.Errorf("%w: %s", ErrNoEntry, path)
		}
		return *v, nil
	}
	if _, ok := t.readSet[path]; !ok {
		t.readSet[path] = t.versionOf(path)
	}
	return t.s.Read(t.dom, path)
}

// Write buffers a write; permission is checked at commit.
func (t *Txn) Write(path, value string) error {
	if t.done {
		return fmt.Errorf("store: use of finished transaction")
	}
	if err := checkPath(path); err != nil {
		return err
	}
	if _, ok := t.writeSet[path]; !ok {
		t.order = append(t.order, path)
	}
	// Record the version only if this is the first touch: a write after a
	// read must validate against the version the read observed, or a
	// read-modify-write racing another commit would silently lose it.
	if _, ok := t.readSet[path]; !ok {
		t.readSet[path] = t.versionOf(path)
	}
	v := value
	t.writeSet[path] = &v
	return nil
}

// Remove buffers a removal.
func (t *Txn) Remove(path string) error {
	if t.done {
		return fmt.Errorf("store: use of finished transaction")
	}
	if err := checkPath(path); err != nil {
		return err
	}
	if _, ok := t.writeSet[path]; !ok {
		t.order = append(t.order, path)
	}
	if _, ok := t.readSet[path]; !ok {
		t.readSet[path] = t.versionOf(path)
	}
	t.writeSet[path] = nil
	return nil
}

// Commit validates the read set and applies buffered writes atomically.
// On ErrConflict nothing is applied and the caller may retry with a fresh
// transaction.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("store: double commit")
	}
	t.done = true
	for path, ver := range t.readSet {
		if t.versionOf(path) != ver {
			return fmt.Errorf("%w: %s changed", ErrConflict, path)
		}
	}
	// Pre-validate permissions so a failed write cannot leave a partial
	// application behind.
	for _, path := range t.order {
		if v := t.writeSet[path]; v == nil {
			n := t.s.lookup(path)
			if n == nil {
				continue // removing an absent node is a no-op
			}
			if !canWrite(n, t.dom) {
				return fmt.Errorf("%w: dom%d removing %s", ErrPermission, t.dom, path)
			}
		} else if err := t.s.checkWritable(t.dom, path); err != nil {
			return err
		}
	}
	for _, path := range t.order {
		if v := t.writeSet[path]; v == nil {
			if t.s.Exists(path) {
				if err := t.s.Remove(t.dom, path); err != nil {
					panic(fmt.Sprintf("store: validated removal failed: %v", err))
				}
			}
		} else if err := t.s.Write(t.dom, path, *v); err != nil {
			panic(fmt.Sprintf("store: validated write failed: %v", err))
		}
	}
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() { t.done = true }

// checkWritable reports whether dom could perform Write(path) right now,
// without mutating anything.
func (s *Store) checkWritable(dom DomID, path string) error {
	if n := s.lookup(path); n != nil {
		if n == s.root {
			return errRoot("write")
		}
		if !canWrite(n, dom) {
			return errPermission(dom, "writing", path)
		}
		return nil
	}
	if err := checkPath(path); err != nil {
		return err
	}
	// Creation point: need write on the deepest existing ancestor.
	if n, _ := s.resolve(path, true); !canWrite(n, dom) {
		return errPermission(dom, "creating under", path)
	}
	return nil
}
