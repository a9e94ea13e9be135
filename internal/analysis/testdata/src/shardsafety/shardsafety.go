// Package shardsafety exercises the netstore store-lock discipline
// pass. The shapes mirror internal/netstore's server: a store, recorder
// and kernel behind a lock, the do/run runner wrappers, and //storeloop
// functions documented to execute under the lock.
package shardsafety

import (
	"sync"

	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

type server struct {
	mu  sync.Mutex
	k   *sim.Kernel
	st  *store.Store
	rec *trace.Recorder
}

// do is the store loop: it runs fn under the lock and drains the
// private kernel, so its direct access is the sanctioned baseline.
//
// storeloop
func (s *server) do(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
	s.k.Run()
}

// drain is do without the marker: the kernel call is flagged.
func (s *server) drain(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
	s.k.Run() // want `only run under the store lock`
}

// bad touches lock state outside any runner closure: flagged.
func (s *server) bad(dom store.DomID, path string) (string, error) {
	s.rec.Record(trace.Record{}) // want `only run under the store lock`
	return s.st.Read(dom, path)  // want `only run under the store lock`
}

// good is the sanctioned shape: a closure shipped through do.
func (s *server) good(dom store.DomID, path string) (v string, err error) {
	s.do(func() {
		s.rec.Record(trace.Record{})
		v, err = s.st.Read(dom, path)
	})
	return v, err
}

// viaRun mirrors netstore's handle: a local runner named run sanctions
// its closure argument too.
func (s *server) viaRun(dom store.DomID, path string) (v string, err error) {
	run := func(fn func(st *store.Store)) { s.do(func() { fn(s.st) }) }
	run(func(st *store.Store) { v, err = st.Read(dom, path) })
	return v, err
}

// walk is documented to run under the lock (the repair shape): the
// marker exempts it.
//
// storeloop
func walk(st *store.Store, dom store.DomID, root string) (string, error) {
	return st.Read(dom, root)
}
