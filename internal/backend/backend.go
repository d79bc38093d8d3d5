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
	"errors"
	"fmt"
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
	// Obs, when set, records query-planner metrics (plan choices,
	// estimated vs actual entries scanned).
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
}

// New creates a Backend.
func New(cfg Config) *Backend {
	if cfg.Catalog == nil {
		panic("backend: Catalog required")
	}
	if cfg.MaxCommitWindow <= 0 {
		cfg.MaxCommitWindow = time.Second
	}
	return &Backend{cfg: cfg, cat: cfg.Catalog, cache: cfg.Cache}
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
	// Coalesce the per-op reads: every op's current row is locked
	// exclusively and read up front with one batched engine call per
	// tablet, so a clustered deployment pays one round trip per tablet
	// instead of one per op. Locks are taken in op order — the same
	// order the loop below would acquire them — and ops still observe
	// their predecessors through the transaction's write buffer.
	if len(ops) > 1 {
		prefetch := make([][]byte, len(ops))
		for i, op := range ops {
			prefetch[i] = db.EntityKey(encoding.EncodeName(nil, op.Name))
		}
		if err := txn.PrefetchForUpdate(ctx, prefetch); err != nil {
			return abort(err)
		}
	}

	changes := make([]change, 0, len(ops))
	names := make([]doc.Name, 0, len(ops))
	muts := make([]rtcache.Mutation, 0, len(ops))
	// Planner statistics deltas, applied only after the Spanner commit
	// succeeds so estimates track durable state.
	var statRemoved, statAdded []index.Entry
	docDeltas := map[string]int64{}
	for i, op := range ops {
		// failOp routes an op-level failure: recorded and skipped in
		// per-op mode, transaction-fatal otherwise.
		failOp := func(err error) (bool, truetime.Timestamp, error) {
			if opErrs != nil {
				opErrs[i] = err
				return true, 0, nil
			}
			ts, aerr := abort(err)
			return false, ts, aerr
		}
		old, err := b.readInTxn(ctx, db, txn, op.Name, true)
		if err != nil {
			return abort(err) // storage-level: fatal in both modes
		}
		switch op.Kind {
		case OpCreate:
			if old != nil {
				if skip, ts, err := failOp(fmt.Errorf("%w: %s", ErrAlreadyExists, op.Name)); !skip {
					return ts, err
				}
				continue
			}
		case OpUpdate:
			if old == nil {
				if skip, ts, err := failOp(fmt.Errorf("%w: %s", ErrNotFound, op.Name)); !skip {
					return ts, err
				}
				continue
			}
		}
		ch := change{op: op, old: old}
		if op.Kind != OpDelete {
			ch.new = doc.New(op.Name, op.Fields)
			if old != nil {
				ch.new.CreateTime = old.CreateTime
			}
			if err := ch.new.CheckSize(); err != nil {
				if skip, ts, aerr := failOp(err); !skip {
					return ts, aerr
				}
				continue
			}
		}
		if !p.Privileged {
			req := &rules.Request{
				Method:      writeMethod(ch),
				Path:        ch.op.Name,
				Auth:        p.Auth,
				Resource:    ch.old,
				NewResource: ch.new,
				Get: func(n doc.Name) (*doc.Document, error) {
					return b.readInTxn(ctx, db, txn, n, false)
				},
			}
			if err := meta.Rules.Authorize(req); err != nil {
				if skip, ts, aerr := failOp(err); !skip {
					return ts, aerr
				}
				continue
			}
		}
		nameEnc := encoding.EncodeName(nil, ch.op.Name)
		if ch.new != nil {
			txn.Put(db.EntityKey(nameEnc), doc.Marshal(ch.new))
		} else if ch.old != nil {
			txn.Delete(db.EntityKey(nameEnc))
		}
		removed, added := index.DiffEntries(ch.old, ch.new, meta.Composites, &meta.Exemptions)
		for _, e := range removed {
			txn.Delete(db.IndexKey(e.Key))
		}
		nameText := []byte(ch.op.Name.String())
		for _, e := range added {
			txn.Put(db.IndexKey(e.Key), nameText)
		}
		statRemoved = append(statRemoved, removed...)
		statAdded = append(statAdded, added...)
		switch {
		case ch.old == nil && ch.new != nil:
			docDeltas[ch.op.Name.Collection().String()]++
		case ch.old != nil && ch.new == nil:
			docDeltas[ch.op.Name.Collection().String()]--
		}
		changes = append(changes, ch)
		names = append(names, ch.op.Name)
		muts = append(muts, rtcache.Mutation{Name: ch.op.Name, Old: ch.old, New: ch.new})
	}

	// Bulk mode with every op skipped: nothing to commit, and each op
	// already carries its own error.
	if opErrs != nil && len(changes) == 0 {
		txn.Abort()
		return 0, nil
	}

	// Write triggers ride Spanner's transactional messaging (§IV-D2).
	for _, ch := range changes {
		txn.Message(TriggerTopic(db.ID), marshalChange(ch.old, ch.new, ch.op.Name))
	}

	// Step 5: two-phase commit with the Real-time Cache: Prepare with a
	// max commit timestamp M, collect the minimum allowed timestamp m.
	writeID := fmt.Sprintf("%s/%d", db.ID, b.writeSeq.Add(1))
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
	// outcome and full document copies. The injected fault here models the
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
			// Stamp timestamps on the forwarded copies.
			for i := range muts {
				if muts[i].New != nil {
					n := muts[i].New.Clone()
					n.UpdateTime = ts
					if n.CreateTime == 0 {
						n.CreateTime = ts
					}
					muts[i].New = n
				}
			}
			b.cache.Accept(ctx, writeID, rtcache.OutcomeSuccess, ts, muts)
		}
	}

	if b.cfg.Billing != nil {
		var writes, deletes int64
		for _, ch := range changes {
			if ch.new == nil {
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

// change pairs a write op with the document versions it transforms.
type change struct {
	op  WriteOp
	old *doc.Document
	new *doc.Document
}

func writeMethod(ch change) rules.Method {
	switch {
	case ch.new == nil:
		return rules.MethodDelete
	case ch.old == nil:
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
	key := db.EntityKey(encoding.EncodeName(nil, name))
	blob, vts, ok, err := txn.GetVersioned(ctx, key, forUpdate)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return ResolveDoc(blob, vts)
}

// ResolveDoc decodes a stored document blob, resolving its timestamps
// against the row's version timestamp.
func ResolveDoc(blob []byte, versionTS truetime.Timestamp) (*doc.Document, error) {
	d, err := doc.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	d.UpdateTime = versionTS
	if d.CreateTime == 0 {
		d.CreateTime = versionTS
	}
	return d, nil
}

// marshalChange serializes a trigger payload: the op name plus old and
// new document blobs.
func marshalChange(old, new *doc.Document, name doc.Name) []byte {
	var out []byte
	out = encoding.AppendEscaped(out, []byte(name.String()))
	var ob, nb []byte
	if old != nil {
		ob = doc.Marshal(old)
	}
	if new != nil {
		nb = doc.Marshal(new)
	}
	out = appendBlob(out, ob)
	out = appendBlob(out, nb)
	return out
}

func appendBlob(dst, b []byte) []byte {
	n := len(b)
	dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(dst, b...)
}

// UnmarshalChange decodes a trigger payload produced by the write path.
func UnmarshalChange(payload []byte) (name doc.Name, old, new *doc.Document, err error) {
	raw, used, err := encoding.ReadEscaped(payload)
	if err != nil {
		return doc.Name{}, nil, nil, err
	}
	name, err = doc.ParseName(string(raw))
	if err != nil {
		return doc.Name{}, nil, nil, err
	}
	rest := payload[used:]
	ob, rest, err := readBlob(rest)
	if err != nil {
		return doc.Name{}, nil, nil, err
	}
	nb, _, err := readBlob(rest)
	if err != nil {
		return doc.Name{}, nil, nil, err
	}
	if len(ob) > 0 {
		if old, err = doc.Unmarshal(ob); err != nil {
			return doc.Name{}, nil, nil, err
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
	n := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	if n < 0 || n > len(b)-4 {
		return nil, nil, status.Errorf(status.Internal, "backend", "bad blob length %d", n)
	}
	return b[4 : 4+n], b[4+n:], nil
}
