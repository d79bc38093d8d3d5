package backend

import (
	"context"
	"errors"
	"fmt"
	"time"

	"firestore/internal/catalog"
	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/query"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/truetime"
)

// GetDocument reads one document. A zero readTS means a strong read
// (TT.now().latest); otherwise the read is served at the given snapshot
// timestamp (§III-C: "point-in-time queries that are either
// strongly-consistent or from a recent timestamp").
func (b *Backend) GetDocument(ctx context.Context, dbID string, p Principal, name doc.Name, readTS truetime.Timestamp) (*doc.Document, truetime.Timestamp, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, 0, err
	}
	var cost time.Duration
	if b.cfg.Costs.Read != nil {
		cost = b.cfg.Costs.Read(dbID)
	}
	if readTS == 0 {
		readTS = db.Spanner.StrongReadTimestamp()
	}
	var d *doc.Document
	err = b.submit(ctx, "backend.get", b.schedKey(dbID, p), cost, func(ctx context.Context) error {
		var rerr error
		d, rerr = b.getAt(ctx, db, name, readTS)
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
					return b.getAt(ctx, db, n, readTS)
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

func (b *Backend) getAt(ctx context.Context, db *catalog.Database, name doc.Name, ts truetime.Timestamp) (*doc.Document, error) {
	blob, vts, ok, err := db.Spanner.SnapshotGet(ctx, db.EntityKey(name), ts)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return ResolveDoc(blob, name, vts)
}

// RunQuery plans and executes q. A zero readTS means a strong read. It
// returns the result page and the snapshot timestamp it reflects, which
// doubles as the max-commit-version for real-time subscriptions (§IV-D4
// step 2).
func (b *Backend) RunQuery(ctx context.Context, dbID string, p Principal, q *query.Query, resume []byte, readTS truetime.Timestamp) (*query.Result, truetime.Timestamp, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, 0, err
	}
	meta := db.Meta()
	if !p.Privileged {
		if meta.Rules == nil {
			return nil, 0, fmt.Errorf("%w: no rules deployed", rules.ErrDenied)
		}
		// The list authorization is evaluated against the collection's
		// document pattern; conditions inspecting document data cannot
		// grant a whole query.
		probe, perr := q.Collection.Doc("?")
		if perr != nil {
			return nil, 0, perr
		}
		req := &rules.Request{Method: rules.MethodList, Path: probe, Auth: p.Auth}
		if err := meta.Rules.Authorize(req); err != nil {
			return nil, 0, err
		}
	}
	plan, err := query.BuildPlanWithStats(q, meta.ReadyComposites(), &meta.Exemptions, db.Stats())
	if err != nil {
		return nil, 0, err
	}
	b.notePlan(dbID, plan)
	if readTS == 0 {
		readTS = db.Spanner.StrongReadTimestamp()
	}
	var cost time.Duration
	if b.cfg.Costs.Query != nil {
		cost = b.cfg.Costs.Query(dbID, q)
	}
	var res *query.Result
	err = b.submit(ctx, "backend.query", b.schedKey(dbID, p), cost, func(ctx context.Context) error {
		st := &snapshotStorage{db: db, ts: readTS}
		var qerr error
		res, qerr = plan.Execute(ctx, st, resume)
		return qerr
	})
	if err != nil {
		return nil, 0, err
	}
	b.noteActual(dbID, q, plan, res.ScannedEntries, len(res.Docs))
	if b.cfg.Billing != nil {
		n := int64(len(res.Docs))
		if n == 0 {
			n = 1 // queries bill at least one read
		}
		b.cfg.Billing.RecordReads(dbID, n)
	}
	return res, readTS, nil
}

// RunAggregation executes q's aggregations (§VIII): COUNT, SUM, and AVG
// all resolve entirely from index entries — SUM/AVG decode the
// aggregated field out of the index key's sort suffix — with no document
// fetches, at one snapshot timestamp. Billing charges one read per 1000
// index entries examined rather than per result, so aggregating millions
// of documents stays pay-as-you-go; partial work is billed even when
// execution fails mid-scan.
func (b *Backend) RunAggregation(ctx context.Context, dbID string, p Principal, q *query.Query, aggs []query.Aggregation, readTS truetime.Timestamp) (*query.AggregationResult, truetime.Timestamp, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, 0, err
	}
	meta := db.Meta()
	if !p.Privileged {
		if meta.Rules == nil {
			return nil, 0, fmt.Errorf("%w: no rules deployed", rules.ErrDenied)
		}
		probe, perr := q.Collection.Doc("?")
		if perr != nil {
			return nil, 0, perr
		}
		req := &rules.Request{Method: rules.MethodList, Path: probe, Auth: p.Auth}
		if err := meta.Rules.Authorize(req); err != nil {
			return nil, 0, err
		}
	}
	if err := query.ValidateAggregations(q, aggs); err != nil {
		return nil, 0, err
	}
	if readTS == 0 {
		readTS = db.Spanner.StrongReadTimestamp()
	}
	var cost time.Duration
	if b.cfg.Costs.Query != nil {
		cost = b.cfg.Costs.Query(dbID, q)
	}
	// Every aggregation (the base query and each SUM/AVG field variant)
	// is planned with the cost-based planner against current statistics.
	planner := func(vq *query.Query) (*query.Plan, error) {
		pl, perr := query.BuildPlanWithStats(vq, meta.ReadyComposites(), &meta.Exemptions, db.Stats())
		if perr != nil {
			return nil, perr
		}
		b.notePlan(dbID, pl)
		return pl, nil
	}
	var res *query.AggregationResult
	err = b.submit(ctx, "backend.aggregate", b.schedKey(dbID, p), cost, func(ctx context.Context) error {
		st := &snapshotStorage{db: db, ts: readTS}
		var qerr error
		res, qerr = query.ExecuteAggregations(ctx, st, q, aggs, planner)
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

// PlanExplain describes one plan alternative the cost-based planner
// considered for a query, in the order considered (the chosen plan
// first).
type PlanExplain struct {
	// Plan is the human-readable plan description.
	Plan string `json:"plan"`
	// Choice is the plan family: composite, auto, zigzag, or entities.
	Choice string `json:"choice"`
	// Cost is the planner's estimated index entries visited.
	Cost int64 `json:"cost"`
	// Chosen marks the plan the planner would execute.
	Chosen bool `json:"chosen"`
	// ActualEntries and Results report a full drain of the alternative
	// when explain runs in analyze mode.
	ActualEntries int `json:"actualEntries,omitempty"`
	Results       int `json:"results,omitempty"`
}

// ExplainQuery enumerates and costs every plan alternative for q without
// serving results. With analyze set, each alternative is also executed
// to exhaustion at one shared snapshot so estimated and actual entries
// visited can be compared side by side.
func (b *Backend) ExplainQuery(ctx context.Context, dbID string, p Principal, q *query.Query, analyze bool, readTS truetime.Timestamp) ([]PlanExplain, truetime.Timestamp, error) {
	db, err := b.cat.Get(dbID)
	if err != nil {
		return nil, 0, err
	}
	meta := db.Meta()
	if !p.Privileged {
		if meta.Rules == nil {
			return nil, 0, fmt.Errorf("%w: no rules deployed", rules.ErrDenied)
		}
		probe, perr := q.Collection.Doc("?")
		if perr != nil {
			return nil, 0, perr
		}
		req := &rules.Request{Method: rules.MethodList, Path: probe, Auth: p.Auth}
		if err := meta.Rules.Authorize(req); err != nil {
			return nil, 0, err
		}
	}
	alts, err := query.EnumeratePlans(q, meta.ReadyComposites(), &meta.Exemptions, db.Stats())
	if err != nil {
		return nil, 0, err
	}
	if readTS == 0 {
		readTS = db.Spanner.StrongReadTimestamp()
	}
	out := make([]PlanExplain, len(alts))
	for i, alt := range alts {
		out[i] = PlanExplain{
			Plan:   alt.Plan.String(),
			Choice: alt.Plan.Choice,
			Cost:   alt.Cost,
			Chosen: i == 0,
		}
		if !analyze {
			continue
		}
		st := &snapshotStorage{db: db, ts: readTS}
		scanned, results, aerr := drainPlan(ctx, st, alt.Plan)
		if aerr != nil {
			return nil, 0, aerr
		}
		out[i].ActualEntries = scanned
		out[i].Results = results
	}
	return out, readTS, nil
}

// drainPlan executes a plan to exhaustion, following resume tokens, and
// reports total index entries visited and result rows produced.
func drainPlan(ctx context.Context, st query.Storage, p *query.Plan) (scanned, results int, err error) {
	var resume []byte
	for {
		res, err := p.Execute(ctx, st, resume)
		if err != nil {
			return scanned, results, err
		}
		scanned += res.ScannedEntries
		results += len(res.Docs)
		if res.Resume == nil {
			return scanned, results, nil
		}
		resume = res.Resume
	}
}

// notePlan records a planning decision: which plan family won and the
// estimated entries it will visit.
func (b *Backend) notePlan(dbID string, p *query.Plan) {
	b.plans.With(dbID, p.Choice).Inc()
	b.planEstimated.With(dbID).Record(time.Duration(p.Cost))
}

// noteActual records a query execution's observed index work, feeding
// both the estimated-vs-actual histograms and the index advisor.
func (b *Backend) noteActual(dbID string, q *query.Query, p *query.Plan, scanned, results int) {
	b.planActual.With(dbID).Record(time.Duration(scanned))
	b.advisor.record(dbID, q, p, scanned, results)
}

// snapshotStorage adapts a database snapshot to the query executor's
// Storage interface: index scans over IndexEntries rows, document reads
// over Entities rows (§IV-D3). One execution owns it and makes one call
// at a time, so the row keys of the call in flight are built in its own
// buffers — Spanner keeps no key past a call, and a scan's bounds stay
// untouched by the gets between its refills.
type snapshotStorage struct {
	db          *catalog.Database
	ts          truetime.Timestamp
	lo, hi, key []byte
}

func (s *snapshotStorage) ScanIndex(ctx context.Context, lo, hi []byte, fn func(key, value []byte) bool) error {
	s.lo, s.hi = s.db.AppendIndexRange(s.lo[:0], s.hi[:0], lo, hi)
	return s.db.Spanner.SnapshotScan(ctx, s.lo, s.hi, s.ts, false, func(r spanner.ScanRow) bool {
		return fn(s.db.StripIndexKey(r.Key), r.Value)
	})
}

func (s *snapshotStorage) ScanCollection(ctx context.Context, c doc.CollectionPath, startAfterID string, fn func(*doc.Document) bool) error {
	prefix := encoding.EncodeCollection(nil, c)
	lo := prefix
	if startAfterID != "" {
		withID := encoding.AppendEscaped(append([]byte(nil), prefix...), startAfterID)
		lo = encoding.PrefixSuccessor(withID)
	}
	klo, khi := s.db.EntityRange(lo, encoding.PrefixSuccessor(prefix))
	want := len(c.Segments()) + 1
	return s.db.Spanner.SnapshotScan(ctx, klo, khi, s.ts, false, func(r spanner.ScanRow) bool {
		d, err := ResolveDoc(r.Value, doc.Name{}, r.TS)
		if err != nil {
			return true // skip corrupt rows; validation jobs catch them
		}
		if len(d.Name.Segments()) != want {
			return true // nested sub-collection document
		}
		return fn(d)
	})
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
	return ResolveDoc(blob, name, vts)
}
