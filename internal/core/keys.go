// Package core implements IOrchestra itself: the guest-side system-store
// driver, the hypervisor-side monitoring and management modules, and the
// three collaborative I/O policies the paper builds on top of them —
// cross-domain dirty-page flush control (Sec. 3.1, Algorithm 1),
// collaborative congestion control (Sec. 3.2, Algorithm 2), and
// inter-domain I/O co-scheduling with dedicated polling cores (Sec. 3.3,
// Algorithm 3).
//
// The control plane is ordinary Go code exchanging state through the
// system store exactly as the prototype does through XenStore; only the
// kernels it manages are simulated.
package core

// Store key suffixes, relative to /local/domain/<id>. The guest driver
// creates every key it owns at registration time so that the management
// module can write to guest-owned nodes (Dom0 always may) while the guest
// retains the ability to reset them.
//
// docs/STORE_KEYS.md is the normative reference: for each key it gives
// the writer, readers, value format, watch semantics and the paper
// section it implements. The comments here are the short form.
const (
	// keyHasDirty (bool, under virt-dev/<disk>/) — guest-written presence
	// bit for dirty pages; transitions publish immediately so the
	// manager's flush candidate set is always current (Algorithm 1).
	keyHasDirty = "has_dirty_pages"
	// keyNrDirty (int pages) — the guest's dirty-page count nr_i,
	// rate-limited to one write per nrUpdateInterval (50 ms); the manager
	// picks argmax_i nr_i among eligible flush candidates (Algorithm 1).
	keyNrDirty = "nr_dirty"
	// keyFlushNow (bool) — set by the manager to order a sync() when the
	// device is near-idle; reset by the guest after flushing
	// (Algorithm 1, notified branch).
	keyFlushNow = "flush_now"
	// keyCongestQuery (bool) — set by the guest when its queue crosses
	// the 7/8 congestion threshold, asking whether the host is actually
	// congested; reset by the manager before answering so the next query
	// re-fires the watch (Algorithm 2).
	keyCongestQuery = "congest_query"
	// keyCongested (bool) — the manager's standing verdict for the disk:
	// set on confirm, cleared by the guest on release (Algorithm 2).
	keyCongested = "congested"

	// keyReleaseRequest (bool, per-domain) — set by the manager on a veto
	// (immediately) or on relief (FIFO with 0–99 ms stagger); the guest
	// releases every disk queue and resets it (Algorithm 2).
	keyReleaseRequest = "release_request"

	// keyWeightPrefix (float, io/weight/<socket>) — guest-published
	// per-socket I/O process weight W_SKT (Sec. 3.3).
	keyWeightPrefix = "io/weight"
	// keyTotalWeight (float) — guest-published total I/O process weight
	// Σ P_l, the share denominator (Sec. 3.3).
	keyTotalWeight = "io/total_weight"
	// keySharePrefix (float, io/share/<socket>) — manager-published
	// per-socket share S_SKT = S^(VM)·W_SKT/ΣP, for observability.
	keySharePrefix = "io/share"
	// keyTargetPrefix (float, io/target/<socket>) — manager-published
	// weight-fraction targets, inversely proportional to per-core
	// latency; the guest migrates one I/O process per update toward them
	// (Sec. 3.3).
	keyTargetPrefix = "io/target"

	// keyDriverPresent (bool, iorchestra/driver) — written "1" by the
	// guest driver at registration and again on every restart; the
	// manager treats the write as proof of a live, collaborative driver
	// and immediately restores a fallen-back guest.
	keyDriverPresent = "iorchestra/driver"
	// keyHeartbeat (int, iorchestra/heartbeat) — monotonic counter the
	// guest driver bumps every heartbeatInterval (100 ms). The manager's
	// liveness signal: a beat older than heartbeatTimeout demotes the
	// guest to Baseline behavior.
	keyHeartbeat = "iorchestra/heartbeat"
	// keySLAState (int, sla/state) — manager-published current G-state
	// index (0 = G0, docs/GSTATES.md); the guest driver watches it and
	// scales its congestion thresholds by the state's weight. The rest of
	// the /sla subtree (tier, targets) belongs to internal/gstate.
	keySLAState = "sla/state"

	// keyFallback (bool, iorchestra/fallback) — manager-written mirror of
	// the guest's degradation state ("1" while the guest is treated as
	// Baseline), published for operators and the trace CLI; nothing in
	// the control plane reads it back.
	keyFallback = "iorchestra/fallback"
)
