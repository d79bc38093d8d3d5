GO ?= go

.PHONY: verify fmt-check vet lint lock-graph test test-race race-repeat debug-smoke chaos fuzz bench

verify: fmt-check vet lint test-race race-repeat

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# fslint: the repo's own analyzers (status/lock/lockorder/ctx/
# clock/obs/io/net discipline). Exits non-zero on any finding; see DESIGN.md
# "Static analysis". It runs on a wall-clock budget: the whole-repo load,
# call-graph build, and all eight analyzers must finish inside 60s or the
# lint gate stops being something people run before every push.
lint:
	@start=$$(date +%s); $(GO) run ./cmd/fslint ./... || exit 1; \
	took=$$(( $$(date +%s) - start )); \
	echo "fslint took $${took}s (budget 60s)"; \
	if [ $$took -gt 60 ]; then echo "fslint exceeded the 60s budget"; exit 1; fi

# Regenerate the DESIGN.md lock-hierarchy figure from the analyzer's own
# ordering graph (cycles would render red — there must be none).
lock-graph:
	$(GO) run ./cmd/fslint -graph ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in production refactors.
test:
	$(GO) test -shuffle=on ./...

# The allocation guards skip themselves under -race (sync.Pool drops a
# quarter of what is put back there), so the second line runs them — and
# the aliasing test that guards the single copy they rely on — without it.
test-race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -run 'Allocs|CostFollowsResult|NotAlias|TestVec' ./internal/index ./internal/backend ./internal/spanner ./internal/core \
		./internal/cluster ./internal/transport ./internal/storage ./internal/doc ./internal/obs

# Repeated race passes over the packages whose concurrency a single run
# under-samples, each line a package list and a -count. Ten rounds over
# real-time delivery: the per-range outbox and its one-drainer hand-off
# (rtcache), and the frontend that relies on the ordering it promises
# (DESIGN.md "Real-time delivery contract"). Two rounds over the write
# pipeline (SDK BulkWriter/iterators and the listener demultiplexer,
# the mobile layer's flush goroutine and listener pumps over it, backend
# group commit, fair scheduler, ramp), the observability spine
# (lock-free histogram, the registry's copy-on-write family and Vec
# indexes, the /debug suite and fsctl under concurrent scrapes), the lock-free keyviz collector,
# the layer the lockorder analyzer watches most closely — the durable
# storage engine (WAL append vs sync vs segment refcounts) —
# and the streaming range-read path above it (spanner, cluster, query):
# a scan interleaves with writers, flushes, splits and peer death chunk
# by chunk, not under one lock hold — and the wire under that (transport):
# pooled frame buffers and reusable call slots under multiplexing.
race-repeat:
	$(GO) test -race -count=10 ./internal/rtcache ./internal/frontend
	$(GO) test -race -count=2 ./firestore/ ./mobile/ ./internal/backend/ ./internal/wfq/ ./internal/ramp/ \
		./internal/reqctx/ ./internal/obs/ ./cmd/firestore-server/server/ ./cmd/fsctl/ \
		./internal/keyviz/ ./internal/storage/ ./internal/spanner/ ./internal/cluster/ ./internal/query/ \
		./internal/transport/

# End-to-end /debug smoke: boots a region, runs a workload, asserts
# metricz shows per-layer {db, code} histograms and exactly the pinned set
# of (metric name, label keys) shapes, tracez nests the layers,
# keyvizz serves the keyspace heatmap (JSON and SVG) and every page
# decodes into the type fsctl reads it with; then drives every fsctl
# command that reads a /debug page against a live server.
debug-smoke:
	$(GO) test -run 'TestDebug' -v ./cmd/firestore-server/server/
	$(GO) test -v ./cmd/fsctl/

# Fixed-seed fault-injection scenarios under the race detector (see
# EXPERIMENTS.md CHAOS). RUN selects a family, default all three:
#   Smoke     trips the out-of-sync/requery recovery path and
#             at-least-once queue redelivery
#   Recovery  kills tablets mid-commit on the durable engine (WAL +
#             segments), restarts the region from disk, requires zero
#             divergence
#   Cluster   a coordinator plus two tablet-server child processes on TCP
#             loopback under network faults, then with one child
#             SIGKILLed mid-run and respawned: the rejoined peer must
#             serve its WAL state and ValidateDatabase must be clean
RUN ?= Smoke|Recovery|Cluster
chaos:
	$(GO) test -race -run 'TestChaos($(RUN))' -v ./internal/chaos/

# Short fuzz passes over the decoders that read bytes from outside the
# process: the trigger payload, a transport frame, the binary engine-plane
# bodies, a segment file, a WAL file, a stored document, an index-key value. One
# pkg:Target pair per decoder. Minimising is capped: the default minute
# per interesting input, on a segment file of a few KB, is the whole pass.
fuzz:
	@for pair in backend:FuzzUnmarshalChange transport:FuzzReadFrame cluster:FuzzEngineBodies storage:FuzzLoadSegment \
		storage:FuzzReplayWAL doc:FuzzUnmarshal encoding:FuzzDecodeValue; do \
		echo "fuzz $$pair"; \
		$(GO) test -run=$${pair#*:} -fuzz=$${pair#*:} -fuzztime=30s -fuzzminimizetime=5s ./internal/$${pair%%:*}/ || exit 1; \
	done

bench:
	$(GO) run ./cmd/firestore-bench -all -spans
