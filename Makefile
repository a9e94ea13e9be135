# Standard verification pipeline: `make check` is what CI runs.
GO ?= go

.PHONY: all build fmt vet lint test fixtures race fuzz bench pair check chaos sla figures experiments clean

all: check

build:
	$(GO) build ./...

# Fails (listing the offenders) when any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis (internal/analysis, docs/LINTING.md):
# four passes — determinism, store key schema, hot-path allocation
# discipline and bounded retries — the rules no type can carry. There
# is no suppression directive to audit.
lint:
	$(GO) run ./cmd/iorchestra-vet ./...

test:
	$(GO) test ./...

# Fails when a file under any testdata/ directory is untracked *and*
# ignored: a fixture written by a test's -update flag that .gitignore
# swallowed passes locally and is missing on a fresh clone.
fixtures:
	@out=$$(git ls-files -oi --exclude-standard -- ':(glob)**/testdata/**'); if [ -n "$$out" ]; then echo "testdata files ignored by .gitignore:"; echo "$$out"; exit 1; fi

# The race run covers the concurrent watch-table paths in internal/store
# and the epoch-barrier goroutines (TestRunEpochsParity, the bench tests).
race:
	$(GO) test -race ./...

# The wire fuzz targets, 10 s each (go test -fuzz takes one target per
# run): the decoders — FuzzDecodeBatch is the one request decoder's, any
# opcode's body, single frame or batch, and keeps the name the test floor
# lists its seeds under — the frame reader against its reference, then
# whole frames at a live server connection.
# Plain `make test` already runs their seed corpus. The server target's
# coverage moves with goroutine scheduling, so the engine is given 1 s,
# not its default minute, to minimize each input it finds interesting —
# otherwise a 10 s run can spend itself shrinking one input.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/netstore/
	$(GO) test -run '^$$' -fuzz '^FuzzReplyDecode$$' -fuzztime 10s ./internal/netstore/
	$(GO) test -run '^$$' -fuzz '^FuzzReplyComposites$$' -fuzztime 10s ./internal/netstore/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s ./internal/netstore/
	$(GO) test -run '^$$' -fuzz '^FuzzServerFrames$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/netstore/

# Manager-tick microbenchmarks (all three policies over 8 guests), then
# the two bring-up and tear-down cost lines — a host's 200 guests brought
# up, one guest's subtree removed among 10,000 — and the host dispatch
# path (one I/O core, 1,000 guest buffers, 8 backlogged), one iteration
# each, so none of them rots. The wire path is measured by the repo
# benchmark: `go run ./bench` (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench BenchmarkManagerTick -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkGuestBringUp -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkRemoveOneOf10kDomains -benchtime 1x -benchmem ./internal/store/
	$(GO) test -run '^$$' -bench BenchmarkHostDispatch -benchtime 1x -benchmem ./internal/hypervisor/

# Alternating paired runs of the repo benchmark, REV's build against the
# working tree's (scripts/pair.sh; the evidence rule is docs/PERFORMANCE.md
# §1): make pair REV=HEAD~1 W=wire_hotpath [N=10] [SEED=7]
N ?= 10
SEED ?= 7
pair:
	@sh scripts/pair.sh "$(REV)" "$(W)" $(N) $(SEED)

check: fmt vet lint build test fixtures race

# Fault-injection gate (docs/FAULTS.md): the checklist test's chaos row
# — IOrchestra within 5 % of Baseline at every uncooperative-guest
# fraction — then the sweep itself (uncooperative fractions and
# control-plane fault rates, quick scale) for the human-readable tables.
chaos:
	$(GO) test -run 'TestReproductionChecklist/chaos-within-5pct-of-baseline' -v ./internal/experiments/
	$(GO) run ./cmd/experiments -run chaos

# Tiered-SLA gate (docs/GSTATES.md): the sweep's acceptance tests —
# gold within bronze's violation budget under gstate, strictly fewer
# gold violation-seconds than the no-gstate baseline on every tier mix,
# and the chaos composition (an uncooperative bronze guest must not
# cause extra gold violation episodes) — then the sweep itself for the
# human-readable tables.
sla:
	$(GO) test -run 'TestSLA' -v ./internal/experiments/
	$(GO) run ./cmd/experiments -run sla

# Reproduction-checklist gate (EXPERIMENTS.md): every checklist row as a
# shape assertion on the experiments' numbers at quick scale and the CI
# seed. FIGURES=1 admits the rows whose sweeps take tens of seconds
# (plain `go test` runs the sub-second ones); a row that does not hold
# yet is a skip naming ROADMAP item 5.
figures:
	FIGURES=1 $(GO) test -run 'TestReproductionChecklist' -v ./internal/experiments/

# Quick-scale regeneration of every paper figure, with decision traces.
experiments:
	$(GO) run ./cmd/experiments -run all -trace traces/

clean:
	rm -rf traces/
