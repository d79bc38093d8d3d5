package backend

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"firestore/internal/catalog"
	"firestore/internal/index"
	"firestore/internal/query"
)

// The index advisor aggregates planner outcomes per query *shape* (the
// value-free canonical form of a query) and recommends composite indexes
// for shapes that repeatedly scan far more index entries than they
// return. It closes the loop the paper leaves to the operator: automatic
// single-field indexes serve everything (§III-B), but only a composite
// keeps the entries-scanned-per-result ratio near 1 for multi-predicate
// queries.

// advisorWasteFactor is the scanned:returned ratio above which a shape
// is flagged for a composite index suggestion.
const advisorWasteFactor = 2

// maxShapes bounds the shapes the advisor tracks per database, and with
// them the plans it keeps: an app that queries map fields by key
// (`prefs.<uid> == true`) makes one shape per key. A shape past the
// bound is planned on every execution and not tracked.
const maxShapes = 1000

type advisor struct {
	mu     sync.Mutex
	shapes map[string]*shapeEntry
	perDB  map[string]int // shapes tracked per database
	// key and preds are shape's scratch, held under mu: a query's map
	// key (database, NUL, shape) and its predicates, sorted.
	key   []byte
	preds []query.Predicate
}

// shapeEntry is one tracked shape: its advisor entry, and the plan of
// the shape the planner made under meta.
type shapeEntry struct {
	AdvisorEntry
	meta  *catalog.Meta
	shape *query.Shape
}

// AdvisorEntry aggregates planner outcomes for one query shape in one
// database.
type AdvisorEntry struct {
	DB    string `json:"db"`
	Shape string `json:"shape"`
	// Choice is the planner's most recent plan family for the shape
	// (composite, auto, zigzag, entities).
	Choice string `json:"choice"`
	// Planned counts the times the shape was planned: once, then once
	// after each change to the database's index set. Every other
	// execution binds its values to the kept plan.
	Planned int64 `json:"planned"`
	// Queries, Scanned, and Results accumulate executions, index entries
	// visited, and result rows produced.
	Queries int64 `json:"queries"`
	Scanned int64 `json:"scanned"`
	Results int64 `json:"results"`
	// Suggested is the composite index that would serve the shape with a
	// single scan; empty when none would help (already composite, or a
	// single-field shape).
	Suggested string `json:"suggested,omitempty"`
}

// Waste is the average entries scanned per result row, the advisor's
// ranking key.
func (e *AdvisorEntry) Waste() float64 {
	if e.Results == 0 {
		return float64(e.Scanned)
	}
	return float64(e.Scanned) / float64(e.Results)
}

// appendShape appends q's shape to a.key: its value-free canonical form
// — collection, predicate paths+operators, and effective orders, with
// predicates sorted so equivalent conjunct orderings collapse to one
// shape.
func (a *advisor) appendShape(q *query.Query) {
	a.key = appendName(a.key, q.Collection.String())
	a.preds = append(a.preds[:0], q.Predicates...)
	slices.SortFunc(a.preds, func(x, y query.Predicate) int {
		return cmp.Or(strings.Compare(string(x.Path), string(y.Path)), strings.Compare(x.Op.String(), y.Op.String()))
	})
	sep := " where "
	for _, p := range a.preds {
		a.key = append(appendName(append(a.key, sep...), string(p.Path)), ' ')
		a.key = append(a.key, p.Op.String()...)
		sep = " and "
	}
	clear(a.preds) // the scratch keeps no query's values
	orders := q.Orders
	if p := q.InequalityPath(); len(orders) == 0 && p != "" {
		orders = []query.Order{{Path: p, Dir: index.Ascending}}
	}
	sep = " order by "
	for _, o := range orders {
		a.key = append(appendName(append(a.key, sep...), string(o.Path)), ' ')
		a.key = append(a.key, o.Dir.String()...)
		sep = ", "
	}
}

// appendName appends a collection or field name to a shape, quoted when
// it holds a space or a quote, so that two shapes never read alike.
func appendName(key []byte, name string) []byte {
	if strings.ContainsAny(name, " \"") {
		return strconv.AppendQuote(key, name)
	}
	return append(key, name...)
}

// shape returns the plan of q's shape in database dbID under meta, and
// the shape's entry (nil past maxShapes). The entry keeps the plan while
// meta is the one it was made under: the catalog installs a new Meta on
// every change to composites, backfills, exemptions or rules. A failed
// plan is not kept. Choice and suggestion follow each planning.
func (a *advisor) shape(dbID string, meta *catalog.Meta, q *query.Query) (*query.Shape, *shapeEntry, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.key = append(append(a.key[:0], dbID...), 0)
	a.appendShape(q)
	e := a.shapes[string(a.key)]
	if e != nil && e.meta == meta {
		return e.shape, e, nil
	}
	s, err := query.PlanShape(q, meta.ReadyComposites(), &meta.Exemptions)
	if err != nil {
		return nil, nil, err
	}
	if e == nil {
		if a.perDB[dbID] >= maxShapes {
			return s, nil, nil
		}
		if a.shapes == nil {
			a.shapes, a.perDB = map[string]*shapeEntry{}, map[string]int{}
		}
		key := string(a.key)
		e = &shapeEntry{AdvisorEntry: AdvisorEntry{DB: dbID, Shape: key[len(dbID)+1:]}}
		a.shapes[key] = e
		a.perDB[dbID]++
	}
	e.meta, e.shape = meta, s
	e.Planned++
	e.Choice, e.Suggested = s.Choice(), ""
	if fields := query.SuggestedFields(q); e.Choice != "composite" && len(fields) > 1 {
		parts := make([]string, len(fields))
		for i, f := range fields {
			parts[i] = f.String()
		}
		e.Suggested = fmt.Sprintf("composite(%s) on %s", strings.Join(parts, ", "), q.Collection.ID())
	}
	return s, e, nil
}

// record folds one executed query into its shape's entry, if tracked.
func (a *advisor) record(e *shapeEntry, scanned, results int) {
	if e == nil {
		return
	}
	a.mu.Lock()
	e.Queries, e.Scanned, e.Results = e.Queries+1, e.Scanned+int64(scanned), e.Results+int64(results)
	a.mu.Unlock()
}

// AdvisorReport returns the advisor's entries for one database (or all
// databases when dbID is empty), wasteful shapes first. Entries below
// the waste threshold are included with Suggested cleared, so the report
// doubles as a per-shape planner activity log.
func (b *Backend) AdvisorReport(dbID string) []AdvisorEntry {
	b.advisor.mu.Lock()
	defer b.advisor.mu.Unlock()
	out := make([]AdvisorEntry, 0, len(b.advisor.shapes))
	for _, e := range b.advisor.shapes {
		if dbID != "" && e.DB != dbID {
			continue
		}
		c := e.AdvisorEntry
		if c.Waste() <= advisorWasteFactor {
			c.Suggested = ""
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Waste() != out[j].Waste() {
			return out[i].Waste() > out[j].Waste()
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}
