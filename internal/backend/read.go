package backend

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/query"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// GetDocument reads one document. A zero readTS means a strong read
// (TT.now().latest); otherwise the read is served at the given snapshot
// timestamp (§III-C: "point-in-time queries that are either
// strongly-consistent or from a recent timestamp"), and refused with
// ErrBelowHorizon, as a query page is, when retention no longer covers
// it.
func (b *Backend) GetDocument(ctx context.Context, dbID string, p Principal, name doc.Name, readTS truetime.Timestamp) (*doc.Document, truetime.Timestamp, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, 0, err
	}
	var d *doc.Document
	err = b.submit(ctx, db, "backend.get", b.schedKey(dbID, p), b.cfg.Costs.Read(dbID), func(ctx context.Context) error {
		at, rerr := readRetained(db, readTS, func(ts truetime.Timestamp) error {
			var gerr error
			d, gerr = b.getAt(ctx, db, name, ts)
			return gerr
		})
		readTS = at
		if rerr != nil {
			return rerr
		}
		if !p.Privileged {
			meta := db.Meta()
			if meta.Rules == nil {
				return fmt.Errorf("%w: no rules deployed", rules.ErrDenied)
			}
			req := &rules.Request{
				Method:   rules.MethodGet,
				Path:     name,
				Auth:     p.Auth,
				Resource: d,
				Get: func(n doc.Name) (*doc.Document, error) {
					return b.getAt(ctx, db, n, at)
				},
			}
			if err := meta.Rules.Authorize(req); err != nil {
				return err
			}
		}
		if b.cfg.Billing != nil {
			b.cfg.Billing.RecordReads(dbID, 1)
		}
		if d == nil {
			return fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrNotFound) && d == nil {
			// Missing documents still report the snapshot they were read
			// at, so callers can cache the negative result.
			return nil, readTS, err
		}
		return nil, 0, err
	}
	return d, readTS, nil
}

// entityKeys holds point reads' row keys: a key lives for its read, and
// only a memo miss, which keeps it, copies it.
var entityKeys = sync.Pool{New: func() any { return new([]byte) }}

func (b *Backend) getAt(ctx context.Context, db *catalog.Database, name doc.Name, ts truetime.Timestamp) (*doc.Document, error) {
	buf := entityKeys.Get().(*[]byte)
	defer entityKeys.Put(buf)
	key := db.AppendEntityKey((*buf)[:0], name)
	*buf = key
	blob, vts, ok, err := db.Spanner.SnapshotGet(ctx, key, ts)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return b.memo.resolve(db.ID, key, blob, name, vts)
}

// RunQuery plans and executes one page of q. The first page (resume
// nil) reads at readTS, or strongly if it is zero; its Resume, passed
// back as resume, names the next page, and is nil once the query ran out
// or reached its limit. Every page reads at the first page's timestamp,
// which RunQuery returns and which doubles as the max-commit-version for
// real-time subscriptions (§IV-D4 step 2), and the limit counts across
// pages. A bad token is InvalidArgument; a page whose timestamp
// retention no longer covers is ErrBelowHorizon (FailedPrecondition).
func (b *Backend) RunQuery(ctx context.Context, dbID string, p Principal, q *query.Query, resume []byte, readTS truetime.Timestamp) (*query.Result, truetime.Timestamp, error) {
	db, meta, err := b.openQuery(dbID, p, q)
	if err != nil {
		return nil, 0, err
	}
	plan, shape, err := b.planQuery(dbID, meta, q)
	if err != nil {
		return nil, 0, err
	}
	b.plans.With(dbID, plan.Choice).Inc()
	var res *query.Result
	err = b.submit(ctx, db, "backend.query", b.schedKey(dbID, p), b.cfg.Costs.Query(dbID, q), func(ctx context.Context) error {
		var qerr error
		res, readTS, qerr = b.page(ctx, db, plan, resume, readTS)
		return qerr
	})
	if err != nil {
		return nil, 0, err
	}
	// What the query actually did feeds the histogram and the index
	// advisor.
	b.planActual.With(dbID).Record(time.Duration(res.ScannedEntries))
	b.advisor.record(shape, res.ScannedEntries, len(res.Docs))
	if b.cfg.Billing != nil {
		n := int64(len(res.Docs))
		if n == 0 {
			n = 1 // queries bill at least one read
		}
		b.cfg.Billing.RecordReads(dbID, n)
	}
	return res, readTS, nil
}

// page executes the page of plan that resume names, at the timestamp
// and from the position its token holds, and cuts it at what remains of
// the query's limit: the one place RunQuery's continuation is followed.
// It replaces Execute's Resume with the next page's token.
func (b *Backend) page(ctx context.Context, db *catalog.Database, plan *query.Plan, resume []byte, readTS truetime.Timestamp) (*query.Result, truetime.Timestamp, error) {
	tok, limit := pageToken{readTS: readTS}, plan.Query.Limit
	if len(resume) > 0 {
		if err := tok.decode(resume, db, limit); err != nil {
			return nil, 0, err
		}
	}
	if limit > 0 && tok.emitted > 0 {
		rest, restPlan := *plan.Query, *plan
		rest.Limit -= tok.emitted
		restPlan.Query = &rest
		plan = &restPlan
	}
	var res *query.Result
	var err error
	tok.readTS, err = readRetained(db, tok.readTS, func(ts truetime.Timestamp) error {
		var xerr error
		res, xerr = plan.Execute(ctx, b.snapshot(db, ts), tok.pos)
		return xerr
	})
	if err != nil {
		return nil, 0, err
	}
	tok.emitted += len(res.Docs)
	if res.Resume != nil && (limit <= 0 || tok.emitted < limit) {
		tok.pos = res.Resume
		res.Resume = tok.encode()
	} else {
		res.Resume = nil
	}
	return res, tok.readTS, nil
}

// pageToken is a query's continuation: the timestamp all its pages read
// at, the documents earlier pages returned, and the position Execute
// stopped at.
type pageToken struct {
	readTS  truetime.Timestamp
	emitted int
	pos     []byte
}

// encode is the token's wire form: the timestamp, the count and the
// position's length as uvarints, then the position.
func (t pageToken) encode() []byte {
	b := binary.AppendUvarint(make([]byte, 0, 3*binary.MaxVarintLen64+len(t.pos)), uint64(t.readTS))
	b = binary.AppendUvarint(b, uint64(t.emitted))
	b = binary.AppendUvarint(b, uint64(len(t.pos)))
	return append(b, t.pos...)
}

// decode reads a token encode wrote, and refuses with InvalidArgument
// one that is cut short or padded, names no position, has reached a
// query limit, disagrees with a non-zero readTS already in t, or reads
// above db's TrueTime now. The position aliases b.
func (t *pageToken) decode(b []byte, db *catalog.Database, limit int) error {
	var f [3]uint64
	for i := range f {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return status.New(status.InvalidArgument, "backend", "malformed page token")
		}
		f[i], b = v, b[n:]
	}
	ts, emitted := truetime.Timestamp(f[0]), int(f[1])
	switch {
	case ts <= 0 || f[1] > math.MaxInt32 || f[2] == 0 || f[2] != uint64(len(b)) || limit > 0 && emitted >= limit:
		return status.New(status.InvalidArgument, "backend", "malformed page token")
	case t.readTS != 0 && t.readTS != ts:
		return status.Errorf(status.InvalidArgument, "backend", "read timestamp %d disagrees with the page token's %d", t.readTS, ts)
	case ts > db.Spanner.StrongReadTimestamp():
		return status.Errorf(status.InvalidArgument, "backend", "page token reads at %d, in the future", ts)
	}
	*t = pageToken{readTS: ts, emitted: emitted, pos: b}
	return nil
}

// readRetained runs read at readTS, a strong read if zero, and then
// refuses it with ErrBelowHorizon if retention may have dropped a
// version it should have seen (spanner.DB.ReadHorizon). A strong read so
// refused outlasted retention between its clock readings, as a stalled
// or preempted read can; it runs again, once, at a fresh timestamp.
func readRetained(db *catalog.Database, readTS truetime.Timestamp, read func(truetime.Timestamp) error) (truetime.Timestamp, error) {
	readAt := func(ts truetime.Timestamp) error {
		if err := read(ts); err != nil {
			return err
		}
		if h := db.Spanner.ReadHorizon(); ts < h {
			return fmt.Errorf("%w: %d is below %d", ErrBelowHorizon, ts, h)
		}
		return nil
	}
	ts := strongIfZero(db, readTS)
	err := readAt(ts)
	if readTS == 0 && errors.Is(err, ErrBelowHorizon) {
		ts = db.Spanner.StrongReadTimestamp()
		err = readAt(ts)
	}
	return ts, err
}

// strongIfZero resolves a zero readTS to a strong read.
func strongIfZero(db *catalog.Database, readTS truetime.Timestamp) truetime.Timestamp {
	if readTS == 0 {
		return db.Spanner.StrongReadTimestamp()
	}
	return readTS
}

// RunAggregation executes q's aggregations (§VIII): COUNT, SUM, and AVG
// all resolve entirely from index entries — SUM/AVG decode the
// aggregated field out of the index key's sort suffix — with no document
// fetches, at one snapshot timestamp (zero: a strong read), refused like
// a query page when retention no longer covers it. Billing charges one
// read per 1000 index entries examined rather than per result, so
// aggregating millions of documents stays pay-as-you-go; partial work is
// billed even when execution fails mid-scan.
func (b *Backend) RunAggregation(ctx context.Context, dbID string, p Principal, q *query.Query, aggs []query.Aggregation, readTS truetime.Timestamp) (*query.AggregationResult, truetime.Timestamp, error) {
	db, meta, err := b.openQuery(dbID, p, q)
	if err != nil {
		return nil, 0, err
	}
	if err := query.ValidateAggregations(q, aggs); err != nil {
		return nil, 0, err
	}
	// Every aggregation (the base query and each SUM/AVG field variant)
	// is planned like a query.
	planner := func(vq *query.Query) (*query.Plan, error) {
		pl, _, perr := b.planQuery(dbID, meta, vq)
		if perr == nil {
			b.plans.With(dbID, pl.Choice).Inc()
		}
		return pl, perr
	}
	var res *query.AggregationResult
	err = b.submit(ctx, db, "backend.aggregate", b.schedKey(dbID, p), b.cfg.Costs.Query(dbID, q), func(ctx context.Context) error {
		var qerr error
		readTS, qerr = readRetained(db, readTS, func(ts truetime.Timestamp) error {
			var aerr error
			res, aerr = query.ExecuteAggregations(ctx, b.snapshot(db, ts), q, aggs, planner)
			return aerr
		})
		return qerr
	})
	// Bill the index work performed even when the scan failed partway —
	// the entries were visited regardless of the outcome.
	if b.cfg.Billing != nil && res != nil {
		reads := int64(res.ScannedEntries/1000) + 1
		b.cfg.Billing.RecordReads(dbID, reads)
	}
	if err != nil {
		return nil, 0, err
	}
	return res, readTS, nil
}

// PlanExplain describes the plan the planner picks for a query.
type PlanExplain struct {
	// Plan is the human-readable plan description.
	Plan string `json:"plan"`
	// Choice is the plan family: composite, auto, zigzag, or entities.
	Choice string `json:"choice"`
	// ActualEntries, Scans and Results report, when explain runs in
	// analyze mode, what RunQuery does with the query: index entries
	// read, storage scans (round trips) made and documents returned over
	// the pages it takes to exhaust the query or reach its limit.
	ActualEntries int `json:"actualEntries,omitempty"`
	Scans         int `json:"scans,omitempty"`
	Results       int `json:"results,omitempty"`
}

// ExplainQuery returns the plan RunQuery would execute for q without
// serving results. With analyze set, the plan is also executed at the
// read timestamp, following RunQuery's page tokens until none is left,
// to count the index entries it visits, the scans it makes and the
// results it returns.
func (b *Backend) ExplainQuery(ctx context.Context, dbID string, p Principal, q *query.Query, analyze bool, readTS truetime.Timestamp) (PlanExplain, truetime.Timestamp, error) {
	db, meta, err := b.openQuery(dbID, p, q)
	if err != nil {
		return PlanExplain{}, 0, err
	}
	plan, _, err := b.planQuery(dbID, meta, q)
	if err != nil {
		return PlanExplain{}, 0, err
	}
	out := PlanExplain{Plan: plan.String(), Choice: plan.Choice}
	if !analyze {
		return out, strongIfZero(db, readTS), nil
	}
	var resume []byte
	for {
		res, ts, err := b.page(ctx, db, plan, resume, readTS)
		if err != nil {
			return PlanExplain{}, 0, err
		}
		out.ActualEntries += res.ScannedEntries
		out.Scans += res.Scans
		out.Results += len(res.Docs)
		if res.Resume == nil {
			return out, ts, nil
		}
		resume = res.Resume
	}
}

// openQuery is the prologue RunQuery, RunAggregation and ExplainQuery
// share: it looks up the database and its metadata, and checks a
// third-party principal's list permission on q's collection. The
// permission is evaluated against the collection's document pattern;
// conditions inspecting document data cannot grant a whole query.
func (b *Backend) openQuery(dbID string, p Principal, q *query.Query) (*catalog.Database, *catalog.Meta, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, nil, err
	}
	meta := db.Meta()
	if !p.Privileged {
		if meta.Rules == nil {
			return nil, nil, fmt.Errorf("%w: no rules deployed", rules.ErrDenied)
		}
		probe, err := q.Collection.Doc("?")
		if err != nil {
			return nil, nil, err
		}
		if err := meta.Rules.Authorize(&rules.Request{Method: rules.MethodList, Path: probe, Auth: p.Auth}); err != nil {
			return nil, nil, err
		}
	}
	return db, meta, nil
}

// planQuery plans q against database dbID's ready index set under meta:
// it binds q's values to the plan of q's shape, which the advisor keeps
// in the shape's entry (advisor.shape), also returned.
func (b *Backend) planQuery(dbID string, meta *catalog.Meta, q *query.Query) (*query.Plan, *shapeEntry, error) {
	s, e, err := b.advisor.shape(dbID, meta, q)
	if err != nil {
		return nil, nil, err
	}
	p, err := s.Bind(q)
	return p, e, err
}

// snapshotStorage adapts a database snapshot to the query executor's
// Storage interface: index scans over IndexEntries rows, document reads
// over Entities rows (§IV-D3). One execution owns it, and the only call
// it nests is a get inside a scan's callback, so the scan's bounds and a
// get's key are built in buffers of their own — Spanner keeps no key
// past a call. The bounds start in arrays of the storage's own: an index
// key of the restaurant queries in alloc_test.go takes 34–43 bytes.
type snapshotStorage struct {
	db           *catalog.Database
	memo         *docMemo
	ts           truetime.Timestamp
	lo, hi, key  []byte
	loBuf, hiBuf [64]byte
	// fn is the callback of the ScanIndex call in flight, and strip hands
	// it the rows with their table prefix stripped, bound once: a literal
	// per call escapes into the scan.
	fn    func(key, value []byte) bool
	strip func(spanner.ScanRow) bool
}

// snapshot is the storage one query execution reads db through at ts.
func (b *Backend) snapshot(db *catalog.Database, ts truetime.Timestamp) *snapshotStorage {
	s := &snapshotStorage{db: db, memo: b.memo, ts: ts}
	s.lo, s.hi = s.loBuf[:0], s.hiBuf[:0]
	return s
}

func (s *snapshotStorage) ScanIndex(ctx context.Context, lo, hi []byte, fn func(key, value []byte) bool) error {
	if s.strip == nil {
		s.strip = func(r spanner.ScanRow) bool { return s.fn(s.db.StripIndexKey(r.Key), r.Value) }
	}
	s.fn = fn
	s.lo, s.hi = s.db.AppendIndexRange(s.lo[:0], s.hi[:0], lo, hi)
	return s.db.Spanner.SnapshotScan(ctx, s.lo, s.hi, s.ts, false, s.strip)
}

func (s *snapshotStorage) ScanCollection(ctx context.Context, c doc.CollectionPath, startAfterID string, fn func(*doc.Document) bool) error {
	prefix := encoding.EncodeCollection(nil, c)
	lo := prefix
	if startAfterID != "" {
		withID := encoding.AppendEscaped(append([]byte(nil), prefix...), startAfterID)
		lo = encoding.PrefixSuccessor(withID)
	}
	klo, khi := s.db.EntityRange(lo, encoding.PrefixSuccessor(prefix))
	var derr error
	err := s.db.Spanner.SnapshotScan(ctx, klo, khi, s.ts, false, func(r spanner.ScanRow) bool {
		var d *doc.Document
		if d, derr = s.memo.resolve(s.db.ID, r.Key, r.Value, doc.Name{}, r.TS); derr != nil {
			return false // a corrupt row fails the scan, as it fails a get
		}
		if !c.Contains(d.Name) {
			return true // nested sub-collection document
		}
		return fn(d)
	})
	if err == nil {
		err = derr
	}
	return err
}

func (s *snapshotStorage) GetDocument(ctx context.Context, name doc.Name) (*doc.Document, error) {
	s.key = s.db.AppendEntityKey(s.key[:0], name)
	blob, vts, ok, err := s.db.Spanner.SnapshotGet(ctx, s.key, s.ts)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return s.memo.resolve(s.db.ID, s.key, blob, name, vts)
}
