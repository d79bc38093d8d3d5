// Package query implements Firestore's query model and engine (§III-C,
// §IV-D3): projections, predicate comparisons with a constant,
// conjunctions, orders, limits and offsets, restricted so that every
// query is satisfied by a linear scan over one secondary index range or a
// zig-zag join of several, followed by document lookups — with no
// in-memory sorting or filtering. The planner performs the paper's greedy
// index-set selection and returns a "needs index" error (mirroring the
// console link) when no index set can serve a query.
package query

import (
	"fmt"
	"slices"
	"strings"

	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/status"
)

// Operator is a predicate comparison operator.
type Operator int

const (
	Eq Operator = iota
	Lt
	Le
	Gt
	Ge
	ArrayContains
)

var opNames = [...]string{"==", "<", "<=", ">", ">=", "array-contains"}

func (o Operator) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return "?"
	}
	return opNames[o]
}

// ParseOperator is the inverse of String: the one table of operator
// spellings the SDK's Where and the HTTP edge both accept.
func ParseOperator(s string) (Operator, error) {
	for o, name := range opNames {
		if s == name {
			return Operator(o), nil
		}
	}
	return 0, status.Errorf(status.InvalidArgument, "query", "unknown operator %q", s)
}

// IsInequality reports whether o is a range operator.
func (o Operator) IsInequality() bool { return o == Lt || o == Le || o == Gt || o == Ge }

// Predicate is one conjunct: field <op> constant.
type Predicate struct {
	Path  doc.FieldPath
	Op    Operator
	Value doc.Value
}

func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Path, p.Op, p.Value)
}

// Order is one sort component.
type Order struct {
	Path doc.FieldPath
	Dir  index.Direction
}

func (o Order) String() string { return string(o.Path) + " " + o.Dir.String() }

// Cursor is a query boundary for pagination (§III-C): Values align
// positionally with the query's effective sort orders, optionally
// followed by one extra string/reference component that compares against
// the document name (the tie-break every result order ends with, so a
// page can resume exactly after its last document).
type Cursor struct {
	Values []doc.Value
	// Inclusive includes documents whose sort position equals the cursor
	// (StartAt/EndAt); exclusive cursors (StartAfter/EndBefore) skip them.
	Inclusive bool
}

// Query is a Firestore query over a single collection.
type Query struct {
	Collection doc.CollectionPath
	Predicates []Predicate
	Orders     []Order
	Limit      int // 0 = unlimited
	Offset     int
	Projection []doc.FieldPath // empty = whole documents
	// Start and End bound the result set at sort positions; see Cursor.
	Start *Cursor
	End   *Cursor
}

// Validation errors: a structurally invalid query is the caller's fault.
var (
	ErrMultipleInequalities = status.New(status.InvalidArgument, "query", "at most one field may have inequality predicates")
	ErrInequalityOrder      = status.New(status.InvalidArgument, "query", "the inequality field must match the first sort order")
	ErrNoCollection         = status.New(status.InvalidArgument, "query", "collection is required")
	ErrCursorArity          = status.New(status.InvalidArgument, "query", "cursor has more values than sort orders (plus the document-name tie-break)")
	ErrCursorName           = status.New(status.InvalidArgument, "query", "cursor document-name component must be a string or reference")
	ErrCursorEmpty          = status.New(status.InvalidArgument, "query", "cursor requires at least one value")
)

// NeedsIndexError reports that no index set can serve the query; the
// production service returns this as an error message with a console link
// for creating the suggested composite index (§IV-D3).
type NeedsIndexError struct {
	Collection string
	Fields     []index.Field
}

func (e *NeedsIndexError) Error() string {
	parts := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		parts[i] = f.String()
	}
	return fmt.Sprintf(
		"query requires an index: create a composite index on collection %q with fields (%s) at https://console.cloud.google.com/firestore/indexes",
		e.Collection, strings.Join(parts, ", "))
}

// StatusCode classifies the missing index as FailedPrecondition: the
// query is well-formed but the system lacks the index it needs, and
// retrying will not help until the developer creates it.
func (e *NeedsIndexError) StatusCode() status.Code { return status.FailedPrecondition }

// Validate checks the query's structural restrictions.
func (q *Query) Validate() error {
	if q.Collection.IsZero() {
		return ErrNoCollection
	}
	var ineqPath doc.FieldPath
	for _, p := range q.Predicates {
		if !p.Op.IsInequality() {
			continue
		}
		if ineqPath == "" {
			ineqPath = p.Path
		} else if ineqPath != p.Path {
			return fmt.Errorf("%w: %q and %q", ErrMultipleInequalities, ineqPath, p.Path)
		}
	}
	if ineqPath != "" && len(q.Orders) > 0 && q.Orders[0].Path != ineqPath {
		return fmt.Errorf("%w: inequality on %q, first order on %q", ErrInequalityOrder, ineqPath, q.Orders[0].Path)
	}
	for _, c := range []*Cursor{q.Start, q.End} {
		if err := q.validateCursor(c); err != nil {
			return err
		}
	}
	return nil
}

// validateCursor checks a cursor's shape against the effective orders: at
// most one value per order plus an optional trailing document-name
// component, which must be a string or reference.
func (q *Query) validateCursor(c *Cursor) error {
	if c == nil {
		return nil
	}
	if len(c.Values) == 0 {
		return ErrCursorEmpty
	}
	orders := q.EffectiveOrders()
	if len(c.Values) > len(orders)+1 {
		return fmt.Errorf("%w: %d values, %d orders", ErrCursorArity, len(c.Values), len(orders))
	}
	if len(c.Values) == len(orders)+1 {
		k := c.Values[len(orders)].Kind()
		if k != doc.KindString && k != doc.KindReference {
			return fmt.Errorf("%w: got %v", ErrCursorName, k)
		}
	}
	return nil
}

// InequalityPath returns the single inequality field path, or "".
func (q *Query) InequalityPath() doc.FieldPath {
	for _, p := range q.Predicates {
		if p.Op.IsInequality() {
			return p.Path
		}
	}
	return ""
}

// EffectiveOrders returns the sort the query's results follow: the
// explicit orders, or the inequality field ascending when no order is
// given. Results are additionally tie-broken by document ID.
func (q *Query) EffectiveOrders() []Order {
	if len(q.Orders) > 0 {
		return q.Orders
	}
	if p := q.InequalityPath(); p != "" {
		return []Order{{Path: p, Dir: index.Ascending}}
	}
	return nil
}

// Matches reports whether d is in the query's result set (ignoring
// limit/offset): it must live directly in the collection, satisfy every
// predicate, and have every sort field present (order-by implies
// existence, as in the production service). Matches is the predicate the
// Query Matcher tasks evaluate against the write log (§IV-D4).
func (q *Query) Matches(d *doc.Document) bool {
	if d == nil || !q.Collection.Contains(d.Name) {
		return false
	}
	for _, p := range q.Predicates {
		if !matchPredicate(d, p) {
			return false
		}
	}
	for _, o := range q.EffectiveOrders() {
		if _, ok := d.Get(o.Path); !ok {
			return false
		}
	}
	return !q.BeforeStart(d) && !q.PastEnd(d)
}

// cursorCompare orders d against the cursor position: negative when d
// sorts before it, zero at it, positive after it. Only the cursor's
// provided components participate, so a prefix cursor matches every
// document sharing that prefix (position zero).
func (q *Query) cursorCompare(d *doc.Document, c *Cursor) int {
	orders := q.EffectiveOrders()
	for i, v := range c.Values {
		var cmp int
		if i < len(orders) {
			dv, _ := d.Get(orders[i].Path)
			cmp = doc.Compare(dv, v)
			if orders[i].Dir == index.Descending {
				cmp = -cmp
			}
		} else {
			// Trailing component: the document-name tie-break.
			ref := v.StringVal()
			if v.Kind() == doc.KindReference {
				ref = v.RefVal()
			}
			cmp = strings.Compare(d.Name.String(), ref)
		}
		if cmp != 0 {
			return cmp
		}
	}
	return 0
}

// BeforeStart reports whether d sorts before the query's start cursor
// (and so must be skipped).
func (q *Query) BeforeStart(d *doc.Document) bool {
	if q.Start == nil {
		return false
	}
	cmp := q.cursorCompare(d, q.Start)
	return cmp < 0 || (cmp == 0 && !q.Start.Inclusive)
}

// PastEnd reports whether d sorts after the query's end cursor. Because
// execution emits documents in effective-sort order, the first PastEnd
// document ends the scan.
func (q *Query) PastEnd(d *doc.Document) bool {
	if q.End == nil {
		return false
	}
	cmp := q.cursorCompare(d, q.End)
	return cmp > 0 || (cmp == 0 && !q.End.Inclusive)
}

func matchPredicate(d *doc.Document, p Predicate) bool {
	v, ok := d.Get(p.Path)
	if !ok {
		return false
	}
	switch p.Op {
	case Eq:
		return doc.Equal(v, p.Value)
	case ArrayContains:
		if v.Kind() != doc.KindArray {
			return false
		}
		for _, el := range v.ArrayVal() {
			if doc.Equal(el, p.Value) {
				return true
			}
		}
		return false
	default:
		// Inequalities compare only within the same type (numbers form
		// one family).
		if v.Kind() != p.Value.Kind() {
			return false
		}
		c := doc.Compare(v, p.Value)
		switch p.Op {
		case Lt:
			return c < 0
		case Le:
			return c <= 0
		case Gt:
			return c > 0
		case Ge:
			return c >= 0
		}
		return false
	}
}

// Compare orders two matching documents per the query's effective sort,
// tie-broken by document name. It defines the order in which snapshots
// list results.
func (q *Query) Compare(a, b *doc.Document) int {
	for _, o := range q.EffectiveOrders() {
		av, _ := a.Get(o.Path)
		bv, _ := b.Get(o.Path)
		c := doc.Compare(av, bv)
		if o.Dir == index.Descending {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return a.Name.Compare(b.Name)
}

// Evaluate answers q over items in memory: those whose documents (nil
// for none) q matches, in q's order, after its offset and limit,
// unprojected. It is what a query means: an offline client answers with
// it, and every path that serves a query must agree with it.
func Evaluate[T any](q *Query, items []T, docOf func(T) *doc.Document) []T {
	var out []T
	for _, it := range items {
		if q.Matches(docOf(it)) {
			out = append(out, it)
		}
	}
	slices.SortFunc(out, func(a, b T) int { return q.Compare(docOf(a), docOf(b)) })
	out = out[min(max(q.Offset, 0), len(out)):]
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// Project returns d restricted to the projection (or d itself when the
// projection is empty).
func (q *Query) Project(d *doc.Document) *doc.Document {
	if len(q.Projection) == 0 {
		return d
	}
	out := &doc.Document{Name: d.Name, Fields: make(map[string]doc.Value, len(q.Projection)), CreateTime: d.CreateTime, UpdateTime: d.UpdateTime}
	for _, p := range q.Projection {
		// A stored document is immutable, so its values are shared, not
		// cloned; the maps a dotted path nests them in are new. A path
		// under another projected path comes with that ancestor, in either
		// order — and the ancestor's map is d's own, which must not be
		// written to.
		if q.projectsAncestorOf(p) {
			continue
		}
		if v, ok := d.Get(p); ok {
			doc.SetPath(out.Fields, p, v)
		}
	}
	return out
}

// projectsAncestorOf reports whether the projection names a strict ancestor
// of p ("address" of "address.zip").
func (q *Query) projectsAncestorOf(p doc.FieldPath) bool {
	for _, a := range q.Projection {
		if len(p) > len(a) && p[len(a)] == '.' && p[:len(a)] == a {
			return true
		}
	}
	return false
}

// String renders the query roughly as SQL, as the paper's examples do.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	if len(q.Projection) == 0 {
		b.WriteString("*")
	} else {
		parts := make([]string, len(q.Projection))
		for i, p := range q.Projection {
			parts[i] = string(p)
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(" from ")
	b.WriteString(q.Collection.String())
	if len(q.Predicates) > 0 {
		b.WriteString(" where ")
		parts := make([]string, len(q.Predicates))
		for i, p := range q.Predicates {
			parts[i] = p.String()
		}
		b.WriteString(strings.Join(parts, " and "))
	}
	if len(q.Orders) > 0 {
		b.WriteString(" order by ")
		parts := make([]string, len(q.Orders))
		for i, o := range q.Orders {
			parts[i] = o.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	if q.Start != nil {
		fmt.Fprintf(&b, " start %s %s", cursorWord(q.Start, "at", "after"), cursorVals(q.Start))
	}
	if q.End != nil {
		fmt.Fprintf(&b, " end %s %s", cursorWord(q.End, "at", "before"), cursorVals(q.End))
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " limit %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, " offset %d", q.Offset)
	}
	return b.String()
}

func cursorWord(c *Cursor, inclusive, exclusive string) string {
	if c.Inclusive {
		return inclusive
	}
	return exclusive
}

func cursorVals(c *Cursor) string {
	parts := make([]string, len(c.Values))
	for i, v := range c.Values {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
