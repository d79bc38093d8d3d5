GO ?= go

.PHONY: verify fmt-check vet lint lint-budget lock-graph build test test-race race-repeat race-rtcache debug-smoke chaos-smoke chaos-recovery cluster-smoke bench-planner fuzz bench

verify: fmt-check vet build lint test-race race-rtcache

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# fslint: the repo's own analyzers (status/lock/lockorder/atomic/ctx/
# clock/obs/io discipline). Exits non-zero on any finding; see DESIGN.md
# "Static analysis".
lint:
	$(GO) run ./cmd/fslint ./...

# Wall-clock budget for the interprocedural suite: the whole-repo load,
# call-graph build, and all nine analyzers must finish inside 60s or
# the lint gate stops being something people run before every push.
lint-budget:
	@start=$$(date +%s); $(GO) run ./cmd/fslint ./... ; \
	end=$$(date +%s); took=$$((end - start)); \
	echo "fslint took $${took}s (budget 60s)"; \
	if [ $$took -gt 60 ]; then echo "fslint exceeded the 60s budget"; exit 1; fi

# Regenerate the DESIGN.md lock-hierarchy figure from the analyzer's own
# ordering graph (cycles would render red — there must be none).
lock-graph:
	$(GO) run ./cmd/fslint -graph ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in production refactors.
test:
	$(GO) test -shuffle=on ./...

test-race:
	$(GO) test -race -shuffle=on ./...

# Repeated race pass over the packages whose concurrency a single run
# under-samples: the write pipeline (SDK BulkWriter/iterators, backend
# group commit, fair scheduler, ramp), the observability layer (span
# recorder, metrics registry, the /debug suite under concurrent scrapes),
# and the two layers the lockorder and atomicdiscipline analyzers watch
# most closely — the lock-free keyviz collector and the durable storage
# engine (WAL append vs sync vs segment refcounts).
race-repeat:
	$(GO) test -race -count=2 ./firestore/ ./internal/backend/ ./internal/wfq/ ./internal/ramp/ \
		./internal/reqctx/ ./internal/obs/ ./cmd/firestore-server/server/ \
		./internal/keyviz/ ./internal/storage/

# Repeated race pass over real-time delivery: the per-range outbox and
# its one-drainer hand-off (rtcache), and the frontend that relies on
# the ordering it promises (DESIGN.md "Real-time delivery contract").
race-rtcache:
	$(GO) test -race -count=10 ./internal/rtcache ./internal/frontend

# End-to-end /debug smoke: boots a region, runs a workload, asserts
# metricz shows per-layer histograms, tracez nests the layers, and
# keyvizz serves the keyspace heatmap (JSON and SVG); then drives the
# fsctl keyviz renderer and stats -watch against a live server.
debug-smoke:
	$(GO) test -run 'TestDebug' -v ./cmd/firestore-server/server/
	$(GO) test -run 'TestKeyvizCommand|TestStatsWatch' -v ./cmd/fsctl/

# Chaos smoke: two short fixed-seed fault-injection scenarios under the
# race detector — one trips the out-of-sync/requery recovery path, one
# exercises at-least-once queue redelivery (see EXPERIMENTS.md CHAOS).
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmoke' -v ./internal/chaos/

# Crash-recovery chaos: fixed-seed scenarios that kill tablets
# mid-commit on the durable engine (WAL + segments), then restart the
# region from disk and require zero divergence (see EXPERIMENTS.md).
chaos-recovery:
	$(GO) test -race -run 'TestChaosRecovery' -v ./internal/chaos/

# Multi-process cluster smoke: a coordinator plus two tablet-server
# child processes on TCP loopback run a write/listen mix under network
# faults, then again with one child SIGKILLed mid-run and respawned —
# the rejoined peer must serve its WAL state and ValidateDatabase must
# report zero divergence (the validation-clean invariant).
cluster-smoke:
	$(GO) test -race -run 'TestChaosCluster' -v ./internal/chaos/

# Cost-based planner gate: the plan picked on every ABL4 query shape
# must visit <= 1.25x the index entries of the oracle-best alternative.
bench-planner:
	$(GO) test -run 'TestPlannerOracleParity' -v ./internal/bench/

# Short fuzz pass over the trigger-payload decoder.
fuzz:
	$(GO) test -run=FuzzUnmarshalChange -fuzz=FuzzUnmarshalChange -fuzztime=30s ./internal/backend/

bench:
	$(GO) run ./cmd/firestore-bench -spans
