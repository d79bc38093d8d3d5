// Package backend implements Firestore's Backend tasks (§IV-D): they
// translate Firestore operations into Spanner requests — the seven-step
// write protocol that keeps secondary indexes strongly consistent with
// documents and runs a two-phase commit with the Real-time Cache, query
// execution over the IndexEntries/Entities tables, security-rule
// enforcement for third-party requests, optimistic transaction commits
// with freshness revalidation, the hand-off of each commit's changes to
// the database's write triggers, and one walk that reconciles indexes
// with documents: backfill, backremoval, validation and repair.
package backend

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/billing"
	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/index"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/reqctx"
	"firestore/internal/rtcache"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/truetime"
	"firestore/internal/wfq"
)

// Errors, classified with canonical status codes so the edge maps them
// to responses and the SDK knows what to retry (§IV-D2 failure modes).
var (
	// ErrNotFound reports a missing document where one was required.
	ErrNotFound = status.New(status.NotFound, "backend", "document not found")
	// ErrAlreadyExists reports a Create of an existing document.
	ErrAlreadyExists = status.New(status.AlreadyExists, "backend", "document already exists")
	// ErrConflict reports an optimistic transaction whose read set went
	// stale; callers retry with backoff.
	ErrConflict = status.New(status.Aborted, "backend", "transaction conflict, retry")
	// ErrUnavailable reports a Real-time Cache prepare failure.
	ErrUnavailable = status.New(status.Unavailable, "backend", "real-time cache unavailable")
	// ErrBelowHorizon reports a read at a timestamp that version
	// retention may no longer cover (spanner.DB.ReadHorizon).
	ErrBelowHorizon = status.New(status.FailedPrecondition, "backend", "read timestamp below the retention horizon")
)

// Principal identifies the caller. Server SDKs run privileged and bypass
// security rules; Mobile/Web SDK traffic carries the end-user identity
// and is checked against the database's rules (§III-E).
type Principal struct {
	Privileged bool
	Auth       *rules.Auth
	// Batch tags the request as throughput-oriented background work
	// ("certain batch and internal workloads set custom tags on their
	// RPCs, which allow schedulers to prioritize latency-sensitive
	// workloads over such RPCs", §IV-C). Batch traffic is scheduled
	// under a low-weight per-database key, so a runaway batch job
	// cannot starve the same database's user-facing traffic — the
	// intra-database isolation §VIII calls for.
	Batch bool
}

// batchWeight is the fair-share weight of a database's batch traffic
// relative to its latency-sensitive traffic.
const batchWeight = 0.2

// schedKey returns the fair-scheduler key for a request. The batch
// weight is installed once per key, not on every RPC — SetWeight takes
// the scheduler lock, and re-setting an unchanged weight on each batch
// request serialized every batch submission through it.
func (b *Backend) schedKey(dbID string, p Principal) string {
	if !p.Batch {
		return dbID
	}
	key := dbID + "\x00batch"
	if b.cfg.Scheduler != nil {
		if _, seen := b.batchKeys.LoadOrStore(key, struct{}{}); !seen {
			b.cfg.Scheduler.SetWeight(key, batchWeight)
		}
	}
	return key
}

// OpKind is a write operation type.
type OpKind int

const (
	// OpSet creates or replaces a document.
	OpSet OpKind = iota
	// OpCreate creates a document, failing if it exists.
	OpCreate
	// OpUpdate replaces an existing document, failing if missing.
	OpUpdate
	// OpDelete removes a document (idempotent).
	OpDelete
)

// WriteOp is one document mutation in a commit.
type WriteOp struct {
	Kind   OpKind
	Name   doc.Name
	Fields map[string]doc.Value // ignored for OpDelete
}

// ReadValidation is one read-set entry for optimistic transaction
// commits: the document version the client observed (0 = absent).
type ReadValidation struct {
	Name       doc.Name
	UpdateTime truetime.Timestamp
}

// Costs model the CPU time of operations: the fair scheduler prices each
// task by it, and the task burns it on the database's clock while it
// holds a scheduler slot. A nil function costs nothing.
type Costs struct {
	Read  func(db string) time.Duration
	Query func(db string, q *query.Query) time.Duration
	Write func(db string, ops int) time.Duration
}

// Config wires a Backend.
type Config struct {
	Catalog *catalog.Catalog
	Cache   *rtcache.Cache
	// Scheduler, when set, runs every operation through the fair-CPU
	// scheduler keyed by database ID (§IV-C).
	Scheduler *wfq.Scheduler
	// Billing, when set, records billable operations.
	Billing *billing.Accountant
	Costs   Costs
	// Obs records query-planner metrics (plan choices, entries scanned).
	Obs *obs.Registry
}

// Backend is a multi-tenant Backend task pool.
type Backend struct {
	cfg      Config
	cat      *catalog.Catalog
	cache    *rtcache.Cache
	writeSeq atomic.Int64
	// batchKeys remembers scheduler keys whose batch weight is already
	// installed, so schedKey sets it once per key rather than per RPC.
	batchKeys sync.Map
	// advisor aggregates per-query-shape planner outcomes for the index
	// suggestion report.
	advisor advisor
	// memo shares decoded document versions between the read sites.
	memo *docMemo

	plans      *obs.CounterVec   // query.plans_total{db,choice}
	planActual *obs.HistogramVec // query.plan_actual_entries{db}; entries, recorded as a Duration
}

// New creates a Backend.
func New(cfg Config) *Backend {
	if cfg.Catalog == nil {
		panic("backend: Catalog required")
	}
	if cfg.Costs.Read == nil {
		cfg.Costs.Read = func(string) time.Duration { return 0 }
	}
	if cfg.Costs.Query == nil {
		cfg.Costs.Query = func(string, *query.Query) time.Duration { return 0 }
	}
	if cfg.Costs.Write == nil {
		cfg.Costs.Write = func(string, int) time.Duration { return 0 }
	}
	reg := obs.OrNew(cfg.Obs)
	return &Backend{
		cfg: cfg, cat: cfg.Catalog, cache: cfg.Cache, memo: &docMemo{seed: maphash.MakeSeed()},
		plans:      reg.CounterVec("query.plans_total", "db", "choice"),
		planActual: reg.HistogramVec("query.plan_actual_entries", "db"),
	}
}

// submit runs fn through the fair scheduler (if configured) under the
// given scheduling key (database ID, possibly QoS-tagged). Work whose
// deadline already expired is rejected before any Spanner access. fn
// runs on the caller's goroutine once it holds a scheduler slot. The
// operation's CPU cost is burned first, slept on db's clock inside the
// slot.
//
// The queue wait and the burn are bracketed in a "wfq.submit" span and fn
// itself in an op span (the per-layer name, e.g. "backend.commit"), so
// traces nest scheduling above execution: frontend → wfq → backend →
// spanner. Work the scheduler refuses — expired deadline, shed load,
// in-flight cap — still lands one op-span sample carrying the rejection
// code, keeping per-op histograms complete. The returned error is the
// scheduler rejection or fn's own error.
func (b *Backend) submit(ctx context.Context, db *catalog.Database, op, key string, cost time.Duration, fn func(context.Context) error) error {
	sctx, submitSpan := reqctx.StartSpan(ctx, "wfq.submit")
	run := func() error {
		if cost > 0 {
			db.Spanner.Clock().Sleep(cost)
		}
		octx, opSpan := reqctx.StartSpan(sctx, op)
		err := fn(octx)
		opSpan.End(err)
		return err
	}
	reject := func(err error) error {
		_, opSpan := reqctx.StartSpan(sctx, op)
		opSpan.End(err)
		submitSpan.End(err)
		return err
	}
	if b.cfg.Scheduler == nil {
		if err := ctx.Err(); err != nil {
			return reject(status.FromContext("backend", err))
		}
		err := run()
		submitSpan.End(nil)
		return err
	}
	var ferr error
	if err := b.cfg.Scheduler.Submit(ctx, key, cost, func() { ferr = run() }); err != nil {
		return reject(err)
	}
	submitSpan.End(nil)
	return ferr
}

// maxCommitWindow bounds how far past "now" a commit timestamp may be
// (the max commit timestamp M in §IV-D2 step 5).
const maxCommitWindow = time.Second

// Commit applies ops atomically (§IV-D2). For third-party principals the
// database's security rules are evaluated transactionally for each
// operation. On success it returns the Spanner commit timestamp.
func (b *Backend) Commit(ctx context.Context, dbID string, p Principal, ops []WriteOp) (truetime.Timestamp, error) {
	return b.CommitTransactional(ctx, dbID, p, ops, nil)
}

// CommitTransactional is Commit plus optimistic read-set revalidation:
// every ReadValidation is re-read under lock and must still have the
// observed update time, else ErrConflict ("all data read by the
// transaction is revalidated for freshness at the time of the commit",
// §III-E).
func (b *Backend) CommitTransactional(ctx context.Context, dbID string, p Principal, ops []WriteOp, reads []ReadValidation) (truetime.Timestamp, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return 0, err
	}
	var ts truetime.Timestamp
	err = b.submit(ctx, db, "backend.commit", b.schedKey(dbID, p), b.cfg.Costs.Write(dbID, len(ops)), func(ctx context.Context) error {
		var cerr error
		ts, cerr = b.commitOps(ctx, db, p, ops, reads, nil)
		return cerr
	})
	if err != nil {
		return 0, err
	}
	return ts, nil
}

// commitOps runs the seven-step write protocol. opErrs, when non-nil
// (the bulk path, len(opErrs) == len(ops)), switches per-op failures —
// precondition violations, size limits, rules denials — from aborting
// the whole transaction to being recorded at the op's index and skipped,
// since bulk ops are independent writes that merely share a transaction
// for throughput. Transient failures (cache prepare, the commit itself)
// still fail every op together.
func (b *Backend) commitOps(ctx context.Context, db *catalog.Database, p Principal, ops []WriteOp, reads []ReadValidation, opErrs []error) (truetime.Timestamp, error) {
	meta := db.Meta()
	clock := db.Spanner.Clock()

	// Step 1: create a Spanner read-write transaction.
	txn := db.Spanner.Begin()
	abort := func(err error) (truetime.Timestamp, error) {
		txn.Abort()
		return 0, err
	}

	// The commit's whole lock set, declared before any lock is taken: every
	// op's document exclusively, every other document of the read set
	// shared (a document both read and written is locked once,
	// exclusively). LockRead takes it in key order — the one order every
	// backend commit shares, so no two of them can deadlock — and reads it
	// with one engine call per tablet, which on a clustered deployment is
	// one round trip per tablet instead of one per document.
	rows := make([]spanner.LockedRow, len(ops), len(ops)+len(reads))
	for i, op := range ops {
		rows[i] = spanner.LockedRow{Key: db.EntityKey(op.Name), Exclusive: true}
	}
	for _, r := range reads {
		rows = append(rows, spanner.LockedRow{Key: db.EntityKey(r.Name)})
	}
	if err := txn.LockRead(ctx, rows); err != nil {
		return abort(err)
	}

	// Optimistic read-set revalidation against the rows just locked.
	for j, r := range reads {
		var curTS truetime.Timestamp
		if row := rows[len(ops)+j]; row.OK {
			curTS = row.TS
		}
		if curTS != r.UpdateTime {
			return abort(fmt.Errorf("%w: %s changed (read at %d, now %d)", ErrConflict, r.Name, r.UpdateTime, curTS))
		}
	}

	if !p.Privileged && meta.Rules == nil {
		return abort(fmt.Errorf("%w: no rules deployed", rules.ErrDenied))
	}

	// Steps 2-4, per operation and in order so each op observes the
	// effects of those before it (through the transaction's write
	// buffer): take the affected document as locked above, verify
	// preconditions, evaluate the write security rules (with get()
	// lookups transactionally consistent with this commit), then buffer
	// the Entities row and the IndexEntries diff. Indexes under backfill
	// are maintained too so they stay consistent (§IV-D1).
	var nameBuf [4]doc.Name
	names := nameBuf[:0] // for Prepare, which keeps none of them
	muts := make([]rtcache.Mutation, 0, len(ops))
	// Each op's index diff, built in these and then handed over entry by
	// entry: the transaction keeps the keys, not the lists. Sixteen
	// entries hold the insert or delete of a document of seven indexed
	// scalar fields; a longer list goes to the heap at its length.
	var remBuf, addBuf [16]index.Entry
	// The documents this commit writes, for the memo once it has a
	// timestamp; not a bulk load's, which is written once.
	var builtBuf [4]*memoEntry
	built := builtBuf[:0]
	for i, op := range ops {
		// failOp routes an op-level failure: recorded in per-op mode
		// (nil: skip the op), transaction-fatal otherwise.
		failOp := func(err error) error {
			if opErrs != nil {
				opErrs[i] = err
				return nil
			}
			txn.Abort()
			return err
		}
		// The stored row and its version timestamp key the memo's
		// decoded copy.
		oldBlob, oldTS, exists, err := txn.GetVersioned(ctx, rows[i].Key, true)
		if err != nil {
			return abort(err) // storage-level: fatal in both modes
		}
		var old, new *doc.Document
		if exists {
			if old, err = b.memo.resolve(db.ID, rows[i].Key, oldBlob, op.Name, oldTS); err != nil {
				return abort(err)
			}
		}
		switch op.Kind {
		case OpCreate:
			if old != nil {
				if err := failOp(fmt.Errorf("%w: %s", ErrAlreadyExists, op.Name)); err != nil {
					return 0, err
				}
				continue
			}
		case OpUpdate:
			if old == nil {
				if err := failOp(fmt.Errorf("%w: %s", ErrNotFound, op.Name)); err != nil {
					return 0, err
				}
				continue
			}
		}
		if op.Kind != OpDelete {
			// The one document built for this commit: a deep copy of the
			// caller's fields (the caller may reuse its map and slices),
			// marshalled for the row below, stamped with the commit
			// timestamp once there is one, and then published to the
			// Real-time Cache. Nothing may modify it after that.
			new = doc.New(op.Name, op.Fields)
			if old != nil {
				new.CreateTime = old.CreateTime
			}
			err := new.CheckSize()
			if err == nil {
				err = doc.CheckFieldNames(new.Fields)
			}
			if err != nil {
				if err := failOp(err); err != nil {
					return 0, err
				}
				continue
			}
		}
		if !p.Privileged {
			// A get() lookup is discovered only while the rules run, after
			// the lock set was taken, so it does not wait for a lock: a
			// document another transaction holds aborts the commit at once.
			var getErr error
			req := &rules.Request{
				Method:      writeMethod(old, new),
				Path:        op.Name,
				Auth:        p.Auth,
				Resource:    old,
				NewResource: new,
				Get: func(n doc.Name) (*doc.Document, error) {
					key := db.EntityKey(n)
					r, err := txn.TryGet(ctx, key)
					if err != nil {
						getErr = err
						return nil, err
					}
					if !r.OK {
						return nil, nil
					}
					return b.memo.resolve(db.ID, key, r.Value, n, r.TS)
				},
			}
			if err := meta.Rules.Authorize(req); err != nil {
				if getErr != nil {
					return abort(getErr) // a lookup that could not read is no denial
				}
				if err := failOp(err); err != nil {
					return 0, err
				}
				continue
			}
		}
		// Every slice handed to the transaction from here on is its to
		// keep (DESIGN.md "Write path: who owns the bytes").
		if new != nil {
			newBlob := doc.Marshal(new)
			txn.Put(rows[i].Key, newBlob)
			if opErrs == nil {
				built = append(built, newMemoEntry(db.ID, rows[i].Key, newBlob, new))
			}
		} else if old != nil {
			txn.Delete(rows[i].Key)
		}
		removed, added := index.DiffEntries(remBuf[:0], addBuf[:0], db.IndexPrefix(), old, new, meta.Composites, &meta.Exemptions)
		for _, e := range removed {
			txn.Delete(e.Key)
		}
		if len(added) > 0 {
			value := []byte(op.Name.String()) // shared by the added rows, never modified
			for _, e := range added {
				txn.Put(e.Key, value)
			}
		}
		names = append(names, op.Name)
		muts = append(muts, rtcache.Mutation{Name: op.Name, Old: old, New: new})
	}

	// Bulk mode with every op skipped: nothing to commit, and each op
	// already carries its own error.
	if opErrs != nil && len(muts) == 0 {
		txn.Abort()
		return 0, nil
	}

	// Step 5: two-phase commit with the Real-time Cache: Prepare with a
	// max commit timestamp M, collect the minimum allowed timestamp m.
	var idBuf [48]byte
	writeID := string(strconv.AppendInt(append(append(idBuf[:0], db.ID...), '/'), b.writeSeq.Add(1), 10))
	maxTS := clock.Now().Latest.Add(maxCommitWindow)
	var minTS truetime.Timestamp
	if b.cache != nil {
		_, prepareSpan := reqctx.StartSpan(ctx, "rtcache.prepare")
		if err := fault.Point(ctx, fault.BackendPrepare); err != nil {
			prepareSpan.End(err)
			return abort(err)
		}
		m, err := b.cache.Prepare(writeID, db.ID, names, maxTS)
		prepareSpan.End(status.Wrap(status.Unavailable, "rtcache", err))
		if err != nil {
			return abort(fmt.Errorf("%w: %v", ErrUnavailable, err))
		}
		minTS = m
	}

	// Step 6: commit the Spanner transaction within [max(m), M].
	ts, err := txn.Commit(ctx, minTS, maxTS)
	if err != nil {
		if b.cache != nil {
			// A definitive abort releases the prepare with a failure; an
			// unknown outcome (phase-2 roll-forward still completing in
			// the background) must NOT be reported as failed — the write
			// may land durably after this return, so the cache resets and
			// requeries the affected ranges instead of serving a view
			// that silently misses the mutation.
			outcome := rtcache.OutcomeFailure
			if errors.Is(err, spanner.ErrOutcomeUnknown) {
				outcome = rtcache.OutcomeUnknown
			}
			b.cache.Accept(ctx, writeID, outcome, 0, nil)
		}
		return 0, err
	}

	// Stamp the commit's documents once, whatever becomes of the Accept:
	// the memo, the cache and the write triggers share these very
	// pointers from here on. A commit whose outcome is unknown returned
	// above and fires no trigger, though it may still land.
	for _, m := range muts {
		if m.New != nil {
			resolveTimes(m.New, ts)
		}
	}
	for _, e := range built {
		b.memo.put(e, ts)
	}
	db.Triggers.Deliver(ctx, ts, muts)

	// Step 7: finish the two-phase commit with the Accept carrying the
	// outcome and the committed documents. The injected fault here models the
	// mid-protocol failure window between the Spanner commit and the RTC
	// Accept: a drop loses the Accept entirely, an error means the Backend
	// no longer knows the outcome it should report.
	if b.cache != nil {
		switch fault.Decide(ctx, fault.BackendAccept).Kind {
		case fault.KindDrop:
			// Accept lost: the Changelog times out and resets ranges,
			// but the write IS acknowledged to the user.
		case fault.KindError:
			b.cache.Accept(ctx, writeID, rtcache.OutcomeUnknown, 0, nil)
		default:
			b.cache.Accept(ctx, writeID, rtcache.OutcomeSuccess, ts, muts)
		}
	}

	if b.cfg.Billing != nil {
		var writes, deletes int64
		for _, m := range muts {
			if m.New == nil {
				deletes++
			} else {
				writes++
			}
		}
		if writes > 0 {
			b.cfg.Billing.RecordWrites(db.ID, writes)
		}
		if deletes > 0 {
			b.cfg.Billing.RecordDeletes(db.ID, deletes)
		}
	}
	return ts, nil
}

func writeMethod(old, new *doc.Document) rules.Method {
	switch {
	case new == nil:
		return rules.MethodDelete
	case old == nil:
		return rules.MethodCreate
	default:
		return rules.MethodUpdate
	}
}

// rowDoc decodes a document row read inside a transaction: nil if the
// row is absent. Stored blobs carry a zero UpdateTime (the commit
// timestamp is not known at write time); ResolveDoc takes it from the
// row's MVCC version timestamp.
func rowDoc(r storage.BatchGet, name doc.Name) (*doc.Document, error) {
	if !r.OK {
		return nil, nil
	}
	return ResolveDoc(r.Value, name, r.TS)
}

// ResolveDoc decodes a stored document blob, resolving its timestamps
// against the row's version timestamp. name is the name the row was read
// by, which the blob must carry (doc.UnmarshalNamed), or zero for a row
// a scan came across.
func ResolveDoc(blob []byte, name doc.Name, versionTS truetime.Timestamp) (*doc.Document, error) {
	d, err := doc.UnmarshalNamed(blob, name)
	if err != nil {
		return nil, err
	}
	resolveTimes(d, versionTS)
	return d, nil
}

func resolveTimes(d *doc.Document, versionTS truetime.Timestamp) {
	d.UpdateTime = versionTS
	if d.CreateTime == 0 {
		d.CreateTime = versionTS
	}
}
