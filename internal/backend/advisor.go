package backend

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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

type advisor struct {
	mu     sync.Mutex
	shapes map[string]*AdvisorEntry
	// key and preds are record's scratch, held under mu: a query's map
	// key (database, NUL, shape) and its predicates, sorted.
	key   []byte
	preds []query.Predicate
}

// AdvisorEntry aggregates planner outcomes for one query shape in one
// database.
type AdvisorEntry struct {
	DB    string `json:"db"`
	Shape string `json:"shape"`
	// Choice is the planner's most recent plan family for the shape
	// (composite, auto, zigzag, entities).
	Choice string `json:"choice"`
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
	a.key = append(a.key, q.Collection.String()...)
	a.preds = append(a.preds[:0], q.Predicates...)
	slices.SortFunc(a.preds, func(x, y query.Predicate) int {
		return cmp.Or(strings.Compare(string(x.Path), string(y.Path)), strings.Compare(x.Op.String(), y.Op.String()))
	})
	sep := " where "
	for _, p := range a.preds {
		a.key = append(append(append(append(a.key, sep...), p.Path...), ' '), p.Op.String()...)
		sep = " and "
	}
	clear(a.preds) // the scratch keeps no query's values
	orders := q.Orders
	if p := q.InequalityPath(); len(orders) == 0 && p != "" {
		orders = []query.Order{{Path: p, Dir: index.Ascending}}
	}
	sep = " order by "
	for _, o := range orders {
		a.key = append(append(append(append(a.key, sep...), o.Path...), ' '), o.Dir.String()...)
		sep = ", "
	}
}

// record folds one executed query into the advisor. The entry's
// suggestion is worked out when the entry is made and again whenever the
// shape's plan family changes.
func (a *advisor) record(dbID string, q *query.Query, p *query.Plan, scanned, results int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.shapes == nil {
		a.shapes = map[string]*AdvisorEntry{}
	}
	a.key = append(append(a.key[:0], dbID...), 0)
	a.appendShape(q)
	e, ok := a.shapes[string(a.key)]
	if !ok {
		key := string(a.key)
		e = &AdvisorEntry{DB: dbID, Shape: key[len(dbID)+1:]}
		a.shapes[key] = e
	}
	e.Queries++
	e.Scanned += int64(scanned)
	e.Results += int64(results)
	if ok && e.Choice == p.Choice {
		return
	}
	e.Choice, e.Suggested = p.Choice, ""
	if fields := query.SuggestedFields(q); p.Choice != "composite" && len(fields) > 1 {
		parts := make([]string, len(fields))
		for i, f := range fields {
			parts[i] = f.String()
		}
		e.Suggested = fmt.Sprintf("composite(%s) on %s", strings.Join(parts, ", "), q.Collection.ID())
	}
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
		c := *e
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
