package cluster

import (
	"fmt"

	"iorchestra/internal/federation"
	"iorchestra/internal/hypervisor"
	"iorchestra/internal/sim"
	"iorchestra/internal/stats"
	"iorchestra/internal/store"
)

// FederatedArrivals drives the dynamic VM experiment across a federated
// testbed: Poisson arrivals flow through the federation's placement
// engine instead of one host's FIFO budget, and guests are live-movable
// — the engine implements federation.MigrationHooks, so the rebalancer
// (or a test calling Federation.Migrate directly) can freeze a VM on
// one host, hand its store subtree and progress over, and resume the
// remainder of its problem size on another host (docs/CLUSTER.md §6).
type FederatedArrivals struct {
	arrivalSource
	fed   *federation.Federation
	hooks VMHooks

	queue   []fedPending
	running map[string]*fedVM

	placements int // app starts, including post-migration resumes
	completed  int
	migrated   int
}

type fedPending struct {
	uid   string
	vcpus int
	app   AppKind
}

// fedVM is one admitted VM. Progress accounting is split into the
// current placement (cur, closures over the live app) and the units
// carried from placements retired by migration, so a VM's problem size
// survives the move: the target resumes target − done, not the whole
// thing.
type fedVM struct {
	uid   string
	host  string
	dom   store.DomID
	vcpus int
	app   AppKind

	cur         *launched // nil while frozen or finished
	doneUnits   float64   // units retired by earlier placements
	targetUnits float64

	frozen bool
	gen    int // bumped on freeze; stale poll closures see it and die
}

// NewFederatedArrivals builds the engine over an already-populated
// federation (hosts joined via fed.Join) and installs itself as the
// federation's migration hooks.
func NewFederatedArrivals(k *sim.Kernel, fed *federation.Federation, cfg ArrivalsConfig, hooks VMHooks, rng *stats.Stream) *FederatedArrivals {
	f := &FederatedArrivals{
		arrivalSource: newArrivalSource(k, cfg, rng),
		fed:           fed, hooks: hooks,
		running: map[string]*fedVM{},
	}
	f.admit = func(vcpus int, app AppKind) {
		f.queue = append(f.queue, fedPending{
			uid: fmt.Sprintf("vm%03d", f.arrived), vcpus: vcpus, app: app,
		})
		f.tryPlace()
	}
	fed.SetMigrationHooks(federation.MigrationHooks{
		Freeze:   f.freezeVM,
		Create:   f.createOnTarget,
		Unfreeze: f.unfreezeVM,
		Restore:  f.restoreVM,
	})
	return f
}

// Completed reports VMs that finished their problem size.
func (f *FederatedArrivals) Completed() int { return f.completed }

// Migrated reports completed live migrations of this engine's VMs.
func (f *FederatedArrivals) Migrated() int { return f.migrated }

// QueueLen reports VMs waiting for any host to admit them.
func (f *FederatedArrivals) QueueLen() int { return len(f.queue) }

// Running reports VMs currently placed and not yet finished.
func (f *FederatedArrivals) Running() int { return len(f.running) }

// tryPlace admits queued VMs FIFO through the placement engine; a
// rejected head blocks the queue until capacity frees (each refused
// attempt is traced as cluster.reject by the federation).
func (f *FederatedArrivals) tryPlace() {
	for len(f.queue) > 0 {
		p := f.queue[0]
		hostID, ok := f.fed.Place(federation.Request{Guest: p.uid, VCPUs: p.vcpus})
		if !ok {
			return
		}
		f.queue = f.queue[1:]
		f.place(p, hostID)
	}
}

func (f *FederatedArrivals) place(p fedPending, hostID string) {
	rt := createVM(f.fed.Member(hostID), p.vcpus, f.hooks)
	f.fed.BindGuest(p.uid, rt.G.ID())
	vm := &fedVM{
		uid: p.uid, host: hostID, dom: rt.G.ID(),
		vcpus: p.vcpus, app: p.app,
		targetUnits: f.cfg.units(p.app),
	}
	f.running[p.uid] = vm
	f.startApp(vm, rt)
}

// finishVM retires a VM that met its problem size. A VM mid-migration
// is left to the migration's outcome — the next poll finishes it
// wherever it lands (its store subtree must not vanish under the
// transfer).
func (f *FederatedArrivals) finishVM(vm *fedVM) {
	if f.running[vm.uid] != vm {
		return
	}
	for _, uid := range f.fed.Migrating() {
		if uid == vm.uid {
			f.k.After(pollInterval, func() { f.finishVM(vm) })
			return
		}
	}
	vm.retire()
	delete(f.running, vm.uid)
	f.completed++
	h := f.fed.Member(vm.host)
	if rt := h.Guest(vm.dom); rt != nil && f.hooks.OnRemove != nil {
		f.hooks.OnRemove(rt)
	}
	h.RemoveGuest(vm.dom)
	f.fed.NoteGuestGone(vm.uid)
	f.tryPlace()
}

// retire stops the VM's current placement, if any, and folds its
// progress into the carried units.
func (vm *fedVM) retire() {
	if vm.cur == nil {
		return
	}
	vm.cur.stop()
	vm.doneUnits += vm.cur.progress()
	vm.cur = nil
}

// startApp launches (or resumes) the VM's application for the remainder
// of its problem size. Each start draws an independent deterministic
// stream, exactly like the single-host engine.
func (f *FederatedArrivals) startApp(vm *fedVM, rt *hypervisor.GuestRuntime) {
	remaining := vm.targetUnits - vm.doneUnits
	if remaining <= 0 {
		f.finishVM(vm)
		return
	}
	f.placements++
	rng := stats.NewStream(f.appSeed+uint64(f.placements), "app")
	gen := vm.gen
	// A completion check dies silently when the placement it belongs to
	// was retired (freeze bumps vm.gen).
	live := func() bool { return f.running[vm.uid] == vm && vm.gen == gen && !vm.frozen }
	l := launchApp(f.k, rt.G, vm.app, vm.vcpus, remaining, rng, live, func() { f.finishVM(vm) })
	vm.cur = &l
}

// --- federation.MigrationHooks ----------------------------------------------

// freezeVM quiesces the VM on its source: the app stops, its progress
// folds into the carried totals, and the poll generation is retired.
func (f *FederatedArrivals) freezeVM(uid string) {
	vm := f.running[uid]
	if vm == nil || vm.frozen {
		return
	}
	vm.frozen = true
	vm.gen++
	vm.retire()
}

// createOnTarget builds the frozen VM's shell on the target host.
func (f *FederatedArrivals) createOnTarget(uid, target string) (store.DomID, error) {
	vm := f.running[uid]
	if vm == nil {
		return 0, fmt.Errorf("cluster: migrating unknown guest %q", uid)
	}
	return createVM(f.fed.Member(target), vm.vcpus, f.hooks).G.ID(), nil
}

// unfreezeVM resumes the VM on its new host with its remaining work.
func (f *FederatedArrivals) unfreezeVM(uid, target string, dom store.DomID) {
	vm := f.running[uid]
	if vm == nil {
		return
	}
	vm.host, vm.dom = target, dom
	vm.frozen = false
	f.migrated++
	rt := f.fed.Member(target).Guest(dom)
	f.startApp(vm, rt)
	f.tryPlace()
}

// restoreVM resumes a frozen VM on its source after an aborted
// migration — the source copy was never disturbed.
func (f *FederatedArrivals) restoreVM(uid string) {
	vm := f.running[uid]
	if vm == nil || !vm.frozen {
		return
	}
	vm.frozen = false
	rt := f.fed.Member(vm.host).Guest(vm.dom)
	f.startApp(vm, rt)
}
