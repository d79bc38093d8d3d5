package query

import (
	"fmt"

	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
)

// Scan is one index range in a plan: scan keys in [Lo, Hi) and join on
// the byte suffix after Prefix (the shared sort-values + document ID).
type Scan struct {
	Def    index.Definition
	Prefix []byte
	Lo, Hi []byte
}

// Plan is an executable query plan: a single scan, or several zig-zag
// joined scans, followed by Entities lookups.
type Plan struct {
	Query *Query
	Scans []Scan

	// Choice labels the plan family ("composite", "auto", "zigzag",
	// "entities") for metrics and EXPLAIN.
	Choice string
	// Cost is the planner's estimated index entries (or weighted
	// Entities rows) visited, from the statistics available at plan
	// time; zero when no statistics were available.
	Cost int64
	// Residual marks an Entities full scan that must re-apply the
	// query's predicates per document.
	Residual bool
}

// ZigZag reports whether the plan joins multiple indexes.
func (p *Plan) ZigZag() bool { return len(p.Scans) > 1 }

func (p *Plan) String() string {
	if len(p.Scans) == 1 {
		if p.Scans[0].Def.ID == 0 {
			if p.Residual {
				return "scan entities + residual filter"
			}
			return "scan entities"
		}
		return fmt.Sprintf("scan %s", p.Scans[0].Def)
	}
	s := "zigzag("
	for i, sc := range p.Scans {
		if i > 0 {
			s += " ⋈ "
		}
		s += sc.Def.String()
	}
	return s + ")"
}

// planInputs is the analyzed, validated query shape shared by the plan
// enumerator: predicates partitioned by class, the required sort
// suffix, and the candidate index definitions.
type planInputs struct {
	coll       string
	sortFields []index.Field
	eqs        []Predicate
	contains   []Predicate
	ineqs      map[Operator]doc.Value
	candidates []index.Definition
	composites []index.Definition
}

// analyzeQuery validates q and precomputes the planning inputs,
// rejecting queries over exempted fields (§III-B: "queries that would
// need the excluded index then fail").
func analyzeQuery(q *Query, composites []index.Definition, ex *index.Exemptions) (*planInputs, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	in := &planInputs{
		coll:       q.Collection.ID(),
		sortFields: sortFieldsOf(q),
		ineqs:      map[Operator]doc.Value{},
		composites: composites,
	}
	for _, p := range q.Predicates {
		switch {
		case p.Op == Eq:
			in.eqs = append(in.eqs, p)
		case p.Op == ArrayContains:
			in.contains = append(in.contains, p)
		default:
			in.ineqs[p.Op] = p.Value
		}
	}

	for _, p := range q.Predicates {
		if ex.IsExempt(in.coll, p.Path) {
			return nil, fmt.Errorf("query: field %q is exempted from indexing: %w",
				p.Path, &NeedsIndexError{Collection: in.coll, Fields: requiredFields(q)})
		}
	}
	for _, o := range in.sortFields {
		if ex.IsExempt(in.coll, o.Path) {
			return nil, fmt.Errorf("query: order field %q is exempted from indexing: %w",
				o.Path, &NeedsIndexError{Collection: in.coll, Fields: requiredFields(q)})
		}
	}

	// Candidate indexes: registered composites plus the automatic
	// definitions the paper gives every field, deduplicated by ID.
	seen := map[uint64]bool{}
	add := func(d index.Definition) {
		if !seen[d.ID] {
			seen[d.ID] = true
			in.candidates = append(in.candidates, d)
		}
	}
	for _, d := range composites {
		if d.Collection == in.coll {
			add(d)
		}
	}
	for _, p := range in.eqs {
		add(index.AutoDef(in.coll, p.Path, index.Ascending))
	}
	if len(in.sortFields) == 1 {
		add(index.AutoDef(in.coll, in.sortFields[0].Path, in.sortFields[0].Dir))
	}
	return in, nil
}

func sortFieldsOf(q *Query) []index.Field {
	orders := q.EffectiveOrders()
	out := make([]index.Field, len(orders))
	for i, o := range orders {
		out[i] = index.Field{Path: o.Path, Dir: o.Dir}
	}
	return out
}

// SuggestedFields returns the field list of the composite index that
// would serve q with a single scan — what NeedsIndexError reports, and
// what the backend's index advisor recommends for queries observed to
// scan far more entries than they return.
func SuggestedFields(q *Query) []index.Field {
	return requiredFields(q)
}

// requiredFields suggests the composite index that would serve q alone.
func requiredFields(q *Query) []index.Field {
	var fields []index.Field
	seen := map[doc.FieldPath]bool{}
	for _, p := range q.Predicates {
		if p.Op == Eq || p.Op == ArrayContains {
			if !seen[p.Path] {
				seen[p.Path] = true
				fields = append(fields, index.Field{Path: p.Path, Dir: index.Ascending})
			}
		}
	}
	for _, f := range sortFieldsOf(q) {
		if !seen[f.Path] {
			seen[f.Path] = true
			fields = append(fields, f)
		}
	}
	return fields
}

// usable reports whether candidate c's fields decompose as P ++ S with S
// equal to the required sort suffix and every field of P an uncovered
// equality path; it returns P.
func usable(c index.Definition, uncovered map[doc.FieldPath]doc.Value, sortFields []index.Field) ([]doc.FieldPath, bool) {
	if c.Kind == index.KindContains {
		return nil, false
	}
	if len(c.Fields) < len(sortFields) {
		return nil, false
	}
	split := len(c.Fields) - len(sortFields)
	for i, f := range c.Fields[split:] {
		if f.Path != sortFields[i].Path || f.Dir != sortFields[i].Dir {
			return nil, false
		}
	}
	var covers []doc.FieldPath
	for _, f := range c.Fields[:split] {
		if _, ok := uncovered[f.Path]; !ok || f.Dir != index.Ascending {
			return nil, false
		}
		covers = append(covers, f.Path)
	}
	if split == 0 && len(sortFields) == 0 {
		return nil, false // degenerate: no prefix, no sort
	}
	return covers, true
}

func hasComposite(defs []index.Definition, id uint64) bool {
	for _, d := range defs {
		if d.ID == id {
			return true
		}
	}
	return false
}

// buildScan constructs the scan for def with the given equality-prefix
// values; bounds default to the whole prefix range.
func buildScan(q *Query, def index.Definition, eqValues []doc.Value) Scan {
	var prefix []byte
	if def.ID == 0 {
		// Entities scan sentinel; the executor substitutes the
		// collection's Entities range.
		return Scan{Def: def}
	}
	prefix = index.CollectionPrefix(def.ID, q.Collection)
	for i, v := range eqValues {
		if def.Fields[i].Dir == index.Descending {
			prefix = encoding.EncodeValueDesc(prefix, v)
		} else {
			prefix = encoding.EncodeValue(prefix, v)
		}
	}
	return Scan{
		Def:    def,
		Prefix: prefix,
		Lo:     prefix,
		Hi:     encoding.PrefixSuccessor(prefix),
	}
}

// suffixBounds converts the inequality conjuncts on the first sort
// component into byte bounds on the suffix, restricted to the operand's
// type (inequalities match same-type values only).
func suffixBounds(ineqs map[Operator]doc.Value, dir index.Direction) (lo, hi []byte) {
	// Type bounds from any operand (validation ensures one path; mixed
	// operand types across ops yield an empty range naturally).
	var kind doc.Kind
	for _, v := range ineqs {
		kind = v.Kind()
		break
	}
	tag := encoding.KindTag(kind)
	if dir == index.Ascending {
		lo, hi = []byte{tag}, []byte{tag + 1}
	} else {
		inv := ^tag
		lo, hi = []byte{inv}, []byte{inv + 1}
	}
	for op, v := range ineqs {
		// Index keys continue with the document ID after the component,
		// so "past every entry with this exact value" is the PREFIX
		// successor of the value encoding, while the value encoding
		// itself is the inclusive start of those entries.
		if dir == index.Ascending {
			enc := encoding.EncodeValue(nil, v)
			switch op {
			case Gt:
				lo = maxBytes(lo, prefixSucc(enc, hi))
			case Ge:
				lo = maxBytes(lo, enc)
			case Lt:
				hi = minBytes(hi, enc)
			case Le:
				hi = minBytes(hi, prefixSucc(enc, hi))
			}
		} else {
			enc := encoding.EncodeValueDesc(nil, v)
			switch op {
			case Gt:
				hi = minBytes(hi, enc)
			case Ge:
				hi = minBytes(hi, prefixSucc(enc, hi))
			case Lt:
				lo = maxBytes(lo, prefixSucc(enc, hi))
			case Le:
				lo = maxBytes(lo, enc)
			}
		}
	}
	return lo, hi
}

// prefixSucc returns the smallest byte string past every string prefixed
// by p, falling back to fallback when p is all 0xff.
func prefixSucc(p, fallback []byte) []byte {
	if s := encoding.PrefixSuccessor(p); s != nil {
		return s
	}
	return fallback
}

func maxBytes(a, b []byte) []byte {
	if compare(a, b) >= 0 {
		return a
	}
	return b
}

func minBytes(a, b []byte) []byte {
	if compare(a, b) <= 0 {
		return a
	}
	return b
}

func compare(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
