GO ?= go

.PHONY: verify fmt-check vet lint lock-graph test test-race race-repeat debug-smoke chaos mutants fuzz bench

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
	$(GO) test -run 'Allocs|CostFollowsResult|NotAlias|TestVec|TestAdvisorRecord' ./internal/index ./internal/backend ./internal/spanner ./internal/core \
		./internal/cluster ./internal/transport ./internal/storage ./internal/doc ./internal/obs ./internal/wfq ./internal/btree \
		./internal/rtcache ./internal/frontend

# Repeated race passes over the packages whose concurrency a single run
# under-samples, each line a package list and a -count. Ten rounds over
# real-time delivery: the per-range outbox and its one-drainer hand-off
# (rtcache), and the frontend that relies on the ordering it promises
# (DESIGN.md "Real-time delivery contract"), and over the fair
# scheduler's slot hand-off, where a grant races its waiter's cancel.
# Two rounds over the write pipeline (SDK BulkWriter/iterators and the
# listener demultiplexer, the mobile layer's flush goroutine and listener
# pumps over it, backend group commit, ramp), the observability spine
# (lock-free histogram, the registry's copy-on-write family and Vec
# indexes, the /debug suite and fsctl under concurrent scrapes), the lock-free keyviz collector,
# the layer the lockorder analyzer watches most closely — the durable
# storage engine (WAL append vs sync vs segment refcounts) —
# and the streaming range-read path above it (spanner, cluster, query):
# a scan interleaves with writers, flushes, splits and peer death chunk
# by chunk, not under one lock hold — and the wire under that (transport):
# pooled frame buffers and the pool's connections, one call at a time each,
# re-dialled after a peer restart — and
# the write triggers' queue and its dispatch goroutine (triggers).
# Twenty rounds of the contended commits that used to wait out
# LockTimeout: read-modify-write transactions on one document (a
# shared-to-exclusive upgrade), and two commits taking the same documents'
# locks in opposite orders (op order, or read A / write B against read B /
# write A) before every commit took its lock set in key order — and
# readers racing those writers on one document, each of which must get
# back the version the engine read, whether decoded or shared from the
# backend's memo of decoded versions — and the lock table itself under
# overlapping shared and exclusive sets, upgrades and a ten-thousand-key
# transaction (spanner) — and index repair and validation looping, a
# batch under locks at a time, amid writers of an indexed collection
# (backend).
race-repeat:
	$(GO) test -race -count=10 ./internal/rtcache ./internal/frontend ./internal/wfq
	$(GO) test -race -count=20 -run 'TestRunTransactionRetries|TestReadModifyWriteDoesNotDeadlock|TestOppositeOrderBatchesDoNotStall|TestCrossDocumentCycleResolvesFast|TestMemoConcurrentReadersSeeTheirVersion|TestLockTableStress|TestReconcileUnderWriters' ./firestore/ ./internal/backend/ ./internal/spanner/
	$(GO) test -race -count=2 ./firestore/ ./mobile/ ./internal/backend/ ./internal/ramp/ \
		./internal/reqctx/ ./internal/obs/ ./cmd/firestore-server/server/ ./cmd/fsctl/ \
		./internal/keyviz/ ./internal/storage/ ./internal/spanner/ ./internal/cluster/ ./internal/query/ \
		./internal/transport/ ./internal/triggers/

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
# EXPERIMENTS.md CHAOS); SEED, if set, runs them at that seed instead of
# their canonical one. RUN selects a family, default all three:
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
SEED ?=
chaos:
	$(GO) test -race -run 'TestChaos($(RUN))' -v ./internal/chaos/ $(if $(SEED),-args -seed $(SEED))

# Mutation checks (internal/mutants): each row of the table puts one known
# defect back into a copy of the module, and its killer test must fail
# there. A row whose fragment no longer occurs exactly once fails too.
mutants:
	$(GO) test -count=1 -timeout 30m -run TestMutants -v ./internal/mutants/ -args -mutants

# Short fuzz passes over the decoders that read bytes from outside the
# process: a transport frame, the binary engine-plane
# bodies, a segment file, a WAL file, a tablet manifest, a stored document,
# an index-key value, a mobile client's persisted state, a query's page
# token, rules source (whose parse must also print back to itself) and a
# document value's HTTP JSON form (which must read back as the same
# value), and over two evaluators: rules evaluation, whose errors must
# deny, and query planning and execution, whose pages must add up to what
# the in-memory query evaluator answers over the same documents. One
# pkg:Target pair per target; pkg is under internal/ unless it is a path
# from the module root. FUZZTIME is each pass's length. Minimising is capped: the
# default minute per interesting input, on a segment file of a few KB, is
# the whole pass.
FUZZTIME ?= 30s
fuzz:
	@for pair in transport:FuzzReadFrame cluster:FuzzEngineBodies storage:FuzzLoadSegment \
		storage:FuzzReplayWAL storage:FuzzLoadManifest doc:FuzzUnmarshal encoding:FuzzDecodeValue mobile:FuzzImport \
		backend:FuzzPageToken rules:FuzzParse rules:FuzzEval query:FuzzQueryAgainstNaive \
		cmd/firestore-server/server:FuzzValueJSON; do \
		echo "fuzz $$pair"; dir=./internal/$${pair%%:*}; [ -d $$dir ] || dir=./$${pair%%:*}; \
		$(GO) test -run=$${pair#*:} -fuzz=$${pair#*:} -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s $$dir/ || exit 1; \
	done

# The paper's figures and tables at full size: each test runs one
# experiment, logs its table and checks the paper's claim on it.
bench:
	$(GO) test -count=1 -timeout 30m -run 'Test(Fig|Tab|Abl|Bulk)' -v ./internal/bench -args -scale 1
