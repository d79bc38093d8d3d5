package query

import (
	"fmt"
	"slices"
	"sort"

	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
)

// Scan is one index range in a plan: scan keys in [Lo, Hi) and join on
// the byte suffix after Prefix (the shared sort-values + document ID).
// The zero Scan stands for the collection's Entities range.
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
	// "entities") for metrics and EXPLAIN; choices lists them in the
	// planner's order of preference.
	Choice string
}

var choices = []string{"composite", "auto", "zigzag", "entities"}

// ZigZag reports whether the plan joins multiple indexes.
func (p *Plan) ZigZag() bool { return len(p.Scans) > 1 }

func (p *Plan) String() string {
	if len(p.Scans) == 1 {
		if p.Scans[0].Def.ID == 0 {
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

// maxCovers bounds how many equality covers the planner explores;
// queries with that many legal index covers are adversarial, not real.
const maxCovers = 32

// BuildPlanWithStats plans q from the query and its ready index set
// alone, in the greedy order of §IV-D3: one composite scan, otherwise
// one automatic-index scan, otherwise the zig-zag join with the fewest
// scans, ties broken by plan text. Only a query with no predicates and no
// order scans the Entities table; every other query is served by an
// index, so its cost follows its result. It returns a *NeedsIndexError
// when no usable index set exists, which in production surfaces to the
// developer with a creation link.
//
// The last parameter is ignored: the planner reads no statistics. It
// stays, with catalog.Database.Stats, because the frozen benchmark probe
// passes it; ROADMAP item 2(d) deletes both.
func BuildPlanWithStats(q *Query, composites []index.Definition, ex *index.Exemptions, _ *index.Stats) (*Plan, error) {
	in, err := analyzeQuery(q, composites, ex)
	if err != nil {
		return nil, err
	}
	var best *Plan
	consider := func(scans []Scan) {
		if p := finishPlan(q, in, scans); best == nil || before(p, best) {
			best = p
		}
	}
	switch {
	case len(in.contains) > 0 && len(in.sortFields) > 0:
		// Array-contains scans join only on the document ID, so they
		// are incompatible with a sort suffix (a composite is required).
	case len(in.eqs) > 0 || len(in.contains) > 0:
		// One plan per distinct cover of the equality predicates, plus
		// one contains scan per array predicate.
		for _, cover := range enumerateCovers(in) {
			scans := make([]Scan, 0, len(cover)+len(in.contains))
			for _, c := range cover {
				scans = append(scans, buildScan(q, c.def, c.values))
			}
			for _, p := range in.contains {
				scans = append(scans, buildScan(q, index.ContainsDef(in.coll, p.Path), []doc.Value{p.Value}))
			}
			consider(scans)
		}
	case len(in.sortFields) == 0:
		consider([]Scan{{}}) // the Entities table, already in name order
	case len(in.sortFields) == 1:
		consider([]Scan{buildScan(q, index.AutoDef(in.coll, in.sortFields[0].Path, in.sortFields[0].Dir), nil)})
	default:
		if def := index.CompositeDef(in.coll, in.sortFields...); hasComposite(in.composites, def.ID) {
			consider([]Scan{buildScan(q, def, nil)})
		}
	}
	if best == nil {
		return nil, &NeedsIndexError{Collection: in.coll, Fields: requiredFields(q)}
	}
	return best, nil
}

// before reports whether plan a precedes b in the planner's order.
func before(a, b *Plan) bool {
	if ra, rb := slices.Index(choices, a.Choice), slices.Index(choices, b.Choice); ra != rb {
		return ra < rb
	}
	if len(a.Scans) != len(b.Scans) {
		return len(a.Scans) < len(b.Scans)
	}
	return a.String() < b.String()
}

// finishPlan applies inequality suffix bounds and labels the plan.
func finishPlan(q *Query, in *planInputs, scans []Scan) *Plan {
	if len(in.ineqs) > 0 {
		lo, hi := suffixBounds(in.ineqs, in.sortFields[0].Dir)
		for i := range scans {
			scans[i].Lo = append(append([]byte(nil), scans[i].Prefix...), lo...)
			if hi != nil {
				scans[i].Hi = append(append([]byte(nil), scans[i].Prefix...), hi...)
			}
		}
	}
	p := &Plan{Query: q, Scans: scans}
	switch {
	case len(scans) > 1:
		p.Choice = "zigzag"
	case scans[0].Def.ID == 0:
		p.Choice = "entities"
	case scans[0].Def.Kind == index.KindComposite:
		p.Choice = "composite"
	default:
		p.Choice = "auto"
	}
	return p
}

// coverScan is one chosen index within an equality cover.
type coverScan struct {
	def    index.Definition
	values []doc.Value
}

// enumerateCovers returns every distinct set of usable indexes that
// together cover all equality predicates. The DFS always extends with a
// candidate covering the first (deterministically ordered) uncovered
// path, so each set is emitted exactly once and permutations are never
// revisited. With no equality predicates it yields one empty cover.
func enumerateCovers(in *planInputs) [][]coverScan {
	uncovered := map[doc.FieldPath]doc.Value{}
	var order []doc.FieldPath
	for _, p := range in.eqs {
		if _, ok := uncovered[p.Path]; !ok {
			order = append(order, p.Path)
		}
		uncovered[p.Path] = p.Value
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var out [][]coverScan
	var sel []coverScan
	var dfs func()
	dfs = func() {
		if len(out) >= maxCovers {
			return
		}
		if len(uncovered) == 0 {
			out = append(out, append([]coverScan(nil), sel...))
			return
		}
		var first doc.FieldPath
		for _, p := range order {
			if _, ok := uncovered[p]; ok {
				first = p
				break
			}
		}
		for _, c := range in.candidates {
			covers, ok := usable(c, uncovered, in.sortFields)
			if !ok || !slices.Contains(covers, first) {
				continue
			}
			values := make([]doc.Value, len(covers))
			for i, p := range covers {
				values[i] = uncovered[p]
				delete(uncovered, p)
			}
			sel = append(sel, coverScan{def: c, values: values})
			dfs()
			sel = sel[:len(sel)-1]
			for i, p := range covers {
				uncovered[p] = values[i]
			}
		}
	}
	dfs()
	return out
}

// planInputs is the analyzed, validated query shape the planner works
// from: predicates partitioned by class, the required sort suffix, and
// the candidate index definitions.
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
	prefix := index.CollectionPrefix(def.ID, q.Collection)
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
