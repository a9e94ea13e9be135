// Package shardsafety exercises the netstore store-loop discipline
// pass. The shapes mirror internal/netstore's server: a store, recorder
// and kernel behind an op queue, the do/run runner wrappers, and
// //storeloop functions documented to execute on the loop.
package shardsafety

import (
	"iorchestra/internal/sim"
	"iorchestra/internal/store"
	"iorchestra/internal/trace"
)

type server struct {
	k   *sim.Kernel
	st  *store.Store
	rec *trace.Recorder
	ops chan func()
}

func (s *server) do(fn func()) {
	done := make(chan struct{})
	s.ops <- func() { fn(); close(done) }
	<-done
}

// storeLoop owns the store: it drains the op queue and drives the
// private kernel, so its direct access is the sanctioned baseline.
//
// storeloop
func (s *server) storeLoop() {
	for fn := range s.ops {
		fn()
		s.k.Run()
	}
}

// bad touches loop state outside any runner closure: flagged.
func (s *server) bad(dom store.DomID, path string) (string, error) {
	s.rec.Record(trace.Record{}) // want `only run on the store loop`
	return s.st.Read(dom, path)  // want `only run on the store loop`
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

// walk is documented to run on the loop (the snapshotWalk shape): the
// marker exempts it.
//
// storeloop
func walk(st *store.Store, dom store.DomID, root string) (string, error) {
	return st.Read(dom, root)
}

// sneak bypasses do with a raw send on the op queue — a back door
// around the confinement.
func (s *server) sneak() {
	s.ops <- func() {} // want `op queue`
}
