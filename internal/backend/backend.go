// Package backend implements Firestore's Backend tasks (§IV-D): they
// translate Firestore operations into Spanner requests — the seven-step
// write protocol that keeps secondary indexes strongly consistent with
// documents and runs a two-phase commit with the Real-time Cache, query
// execution over the IndexEntries/Entities tables, security-rule
// enforcement for third-party requests, optimistic transaction commits
// with freshness revalidation, write triggers via the transactional
// message queue, and the background index backfill/backremoval service.
package backend

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/billing"
	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/fault"
	"firestore/internal/index"
	"firestore/internal/obs"
	"firestore/internal/query"
	"firestore/internal/reqctx"
	"firestore/internal/rtcache"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/status"
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

// Costs model the simulated CPU cost of operations for the fair
// scheduler; nil functions mean zero cost.
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
	// MaxCommitWindow bounds how far past "now" a commit timestamp may
	// be (the max commit timestamp M in §IV-D2 step 5). Default 1s.
	MaxCommitWindow time.Duration
	// Obs records query-planner metrics (plan choices, estimated vs
	// actual entries scanned).
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

	plans                     *obs.CounterVec   // query.plans_total{db,choice}
	planEstimated, planActual *obs.HistogramVec // {db}; entries, recorded as a Duration
}

// New creates a Backend.
func New(cfg Config) *Backend {
	if cfg.Catalog == nil {
		panic("backend: Catalog required")
	}
	if cfg.MaxCommitWindow <= 0 {
		cfg.MaxCommitWindow = time.Second
	}
	reg := obs.OrNew(cfg.Obs)
	return &Backend{
		cfg: cfg, cat: cfg.Catalog, cache: cfg.Cache,
		plans:         reg.CounterVec("query.plans_total", "db", "choice"),
		planEstimated: reg.HistogramVec("query.plan_estimated_entries", "db"),
		planActual:    reg.HistogramVec("query.plan_actual_entries", "db"),
	}
}

// submit runs fn through the fair scheduler (if configured) under the
// given scheduling key (database ID, possibly QoS-tagged). Work whose
// deadline already expired is rejected before any Spanner access.
//
// The queue wait is bracketed in a "wfq.submit" span and fn itself in an
// op span (the per-layer name, e.g. "backend.commit"), so traces nest
// scheduling above execution: frontend → wfq → backend → spanner. Work
// the scheduler refuses — expired deadline, shed load, in-flight cap —
// still lands one op-span sample carrying the rejection code, keeping
// per-op histograms complete. The returned error is the scheduler
// rejection or fn's own error.
func (b *Backend) submit(ctx context.Context, op, key string, cost time.Duration, fn func(context.Context) error) error {
	sctx, endSubmit := reqctx.StartSpan(ctx, "wfq.submit")
	run := func() error {
		octx, endOp := reqctx.StartSpan(sctx, op)
		err := fn(octx)
		endOp(err)
		return err
	}
	reject := func(err error) error {
		_, endOp := reqctx.StartSpan(sctx, op)
		endOp(err)
		endSubmit(err)
		return err
	}
	if b.cfg.Scheduler == nil {
		if err := ctx.Err(); err != nil {
			return reject(status.FromContext("backend", err))
		}
		if cost > 0 {
			time.Sleep(cost)
		}
		err := run()
		endSubmit(nil)
		return err
	}
	var ferr error
	if err := b.cfg.Scheduler.Submit(ctx, key, cost, func() { ferr = run() }); err != nil {
		return reject(err)
	}
	endSubmit(nil)
	return ferr
}

// TriggerTopic is the transactional message topic carrying write-trigger
// payloads for a database.
func TriggerTopic(dbID string) string { return "triggers/" + dbID }

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
	var cost time.Duration
	if b.cfg.Costs.Write != nil {
		cost = b.cfg.Costs.Write(dbID, len(ops))
	}
	var ts truetime.Timestamp
	err = b.submit(ctx, "backend.commit", b.schedKey(dbID, p), cost, func(ctx context.Context) error {
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

	// Optimistic read-set revalidation under shared locks.
	for _, r := range reads {
		cur, err := b.readInTxn(ctx, db, txn, r.Name, false)
		if err != nil {
			return abort(err)
		}
		var curTS truetime.Timestamp
		if cur != nil {
			curTS = cur.UpdateTime
		}
		if curTS != r.UpdateTime {
			return abort(fmt.Errorf("%w: %s changed (read at %d, now %d)", ErrConflict, r.Name, r.UpdateTime, curTS))
		}
	}

	if !p.Privileged && meta.Rules == nil {
		return abort(fmt.Errorf("%w: no rules deployed", rules.ErrDenied))
	}

	// Steps 2-4, per operation and in order so each op observes the
	// effects of those before it: read the affected document under an
	// exclusive lock, verify preconditions, evaluate the write security
	// rules (with get() lookups transactionally consistent with this
	// commit), then buffer the Entities row and the IndexEntries diff.
	// Indexes under backfill are maintained too so they stay consistent
	// (§IV-D1).
	// Each op's Entities row key is built once and shared by the
	// prefetch, the read and the write.
	keys := make([][]byte, len(ops))
	for i, op := range ops {
		keys[i] = db.EntityKey(op.Name)
	}
	// Coalesce the per-op reads: every op's current row is locked
	// exclusively and read up front with one batched engine call per
	// tablet, so a clustered deployment pays one round trip per tablet
	// instead of one per op. Locks are taken in op order — the same
	// order the loop below would acquire them — and ops still observe
	// their predecessors through the transaction's write buffer.
	if len(ops) > 1 {
		if err := txn.PrefetchForUpdate(ctx, keys); err != nil {
			return abort(err)
		}
	}

	names := make([]doc.Name, 0, len(ops))
	muts := make([]rtcache.Mutation, 0, len(ops))
	// Planner statistics deltas, applied only after the Spanner commit
	// succeeds so estimates track durable state.
	var statRemoved, statAdded []index.Entry
	docDeltas := map[string]int64{}
	topic := TriggerTopic(db.ID)
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
		// The stored row and its version timestamp are kept next to the
		// decoded document: the trigger payload is framed from them.
		oldBlob, oldTS, exists, err := txn.GetVersioned(ctx, keys[i], true)
		if err != nil {
			return abort(err) // storage-level: fatal in both modes
		}
		var old, new *doc.Document
		if exists {
			if old, err = ResolveDoc(oldBlob, op.Name, oldTS); err != nil {
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
			if err := new.CheckSize(); err != nil {
				if err := failOp(err); err != nil {
					return 0, err
				}
				continue
			}
		}
		if !p.Privileged {
			req := &rules.Request{
				Method:      writeMethod(old, new),
				Path:        op.Name,
				Auth:        p.Auth,
				Resource:    old,
				NewResource: new,
				Get: func(n doc.Name) (*doc.Document, error) {
					return b.readInTxn(ctx, db, txn, n, false)
				},
			}
			if err := meta.Rules.Authorize(req); err != nil {
				if err := failOp(err); err != nil {
					return 0, err
				}
				continue
			}
		}
		// Every slice handed to the transaction from here on is its to
		// keep (DESIGN.md "Write path: who owns the bytes").
		var newBlob []byte
		if new != nil {
			newBlob = doc.Marshal(new)
			txn.Put(keys[i], newBlob)
		} else if old != nil {
			txn.Delete(keys[i])
		}
		removed, added := index.DiffEntries(db.IndexPrefix(), old, new, meta.Composites, &meta.Exemptions)
		for _, e := range removed {
			txn.Delete(e.Key)
		}
		nameText := op.Name.String()
		if len(added) > 0 {
			value := []byte(nameText) // shared by the added rows, never modified
			for _, e := range added {
				txn.Put(e.Key, value)
			}
		}
		// Write triggers ride Spanner's transactional messaging (§IV-D2).
		txn.Message(topic, changePayload(nameText, oldBlob, oldTS, newBlob))
		if statRemoved == nil && statAdded == nil {
			statRemoved, statAdded = removed, added
		} else {
			statRemoved, statAdded = append(statRemoved, removed...), append(statAdded, added...)
		}
		switch {
		case old == nil && new != nil:
			docDeltas[op.Name.Collection().String()]++
		case old != nil && new == nil:
			docDeltas[op.Name.Collection().String()]--
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
	maxTS := clock.Now().Latest.Add(b.cfg.MaxCommitWindow)
	var minTS truetime.Timestamp
	if b.cache != nil {
		_, endPrepare := reqctx.StartSpan(ctx, "rtcache.prepare")
		if err := fault.Point(ctx, fault.BackendPrepare); err != nil {
			endPrepare(err)
			return abort(err)
		}
		m, err := b.cache.Prepare(writeID, db.ID, names, maxTS)
		endPrepare(status.Wrap(status.Unavailable, "rtcache", err))
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

	// Commit durable: fold the index-entry diff into the planner's
	// cardinality statistics.
	stats := db.Stats()
	stats.ApplyDiff(statRemoved, statAdded)
	for coll, delta := range docDeltas {
		stats.ApplyDoc(coll, delta)
	}

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
			// Stamp the commit's documents in place: nothing else holds
			// them yet, and the cache publishes these very pointers.
			for _, m := range muts {
				if m.New != nil {
					resolveTimes(m.New, ts)
				}
			}
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

// readInTxn reads and decodes a document inside a transaction. Stored
// blobs carry a zero UpdateTime (the commit timestamp is not known at
// write time); reads resolve it from the row's MVCC version timestamp,
// and a zero stored CreateTime means "created by that same version".
func (b *Backend) readInTxn(ctx context.Context, db *catalog.Database, txn *spanner.Txn, name doc.Name, forUpdate bool) (*doc.Document, error) {
	blob, vts, ok, err := txn.GetVersioned(ctx, db.EntityKey(name), forUpdate)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return ResolveDoc(blob, name, vts)
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

// changePayload frames a trigger message from bytes the commit already
// holds, in one exact-size allocation: the escaped document name, the
// stored row the write replaces (empty for a create), the blob just
// marshalled for the new row (empty for a delete), and the version
// timestamp the old row was read at. Stored blobs carry a zero
// UpdateTime, so the decoder resolves the old document's timestamps
// from that last field, as ResolveDoc does for a read.
func changePayload(name string, oldBlob []byte, oldTS truetime.Timestamp, newBlob []byte) []byte {
	out := make([]byte, 0, len(name)+2+4+len(oldBlob)+4+len(newBlob)+8)
	out = encoding.AppendEscaped(out, name)
	out = appendBlob(out, oldBlob)
	out = appendBlob(out, newBlob)
	return binary.BigEndian.AppendUint64(out, uint64(oldTS))
}

func appendBlob(dst, b []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(b))), b...)
}

// ChangeName decodes only the document name of a trigger payload,
// returning the rest of the frame: what a subscriber needs to decide
// whether the change concerns it at all.
func ChangeName(payload []byte) (name doc.Name, rest []byte, err error) {
	raw, used, err := encoding.ReadEscaped(payload)
	if err != nil {
		return doc.Name{}, nil, err
	}
	name, err = doc.ParseName(string(raw))
	return name, payload[used:], err
}

// UnmarshalChange decodes a trigger payload produced by the write path.
// A frame without the trailing timestamp (or with a zero one) keeps the
// timestamps its old blob carries.
func UnmarshalChange(payload []byte) (name doc.Name, old, new *doc.Document, err error) {
	name, rest, err := ChangeName(payload)
	if err != nil {
		return doc.Name{}, nil, nil, err
	}
	ob, rest, err := readBlob(rest)
	if err != nil {
		return doc.Name{}, nil, nil, err
	}
	nb, rest, err := readBlob(rest)
	if err != nil {
		return doc.Name{}, nil, nil, err
	}
	if len(ob) > 0 {
		if old, err = doc.Unmarshal(ob); err != nil {
			return doc.Name{}, nil, nil, err
		}
		if len(rest) >= 8 {
			if ts := truetime.Timestamp(binary.BigEndian.Uint64(rest)); ts != 0 {
				resolveTimes(old, ts)
			}
		}
	}
	if len(nb) > 0 {
		if new, err = doc.Unmarshal(nb); err != nil {
			return doc.Name{}, nil, nil, err
		}
	}
	return name, old, new, nil
}

func readBlob(b []byte) (blob, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, status.New(status.Internal, "backend", "truncated blob length")
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > len(b)-4 {
		return nil, nil, status.Errorf(status.Internal, "backend", "bad blob length %d", n)
	}
	return b[4 : 4+n], b[4+n:], nil
}
