package query

import (
	"bytes"
	"fmt"
	"slices"

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

// Shape is the value-free half of a plan: the index set chosen for a
// query shape (collection, predicate paths and operators, effective
// orders). Bind makes it the Plan of one query of that shape; a Shape is
// immutable, so executions bind it concurrently.
type Shape struct {
	proto Plan            // Choice and each scan's Def; no bytes
	sorts int             // length of every non-contains scan's sort suffix
	dir   index.Direction // of the first sort field, which inequalities bound
}

// Choice is the plan family of every plan bound from s.
func (s *Shape) Choice() string { return s.proto.Choice }

// maxCovers bounds how many equality covers the planner explores;
// queries with that many legal index covers are adversarial, not real.
const maxCovers = 32

// BuildPlanWithStats plans q from the query and its ready index set
// alone: PlanShape, then Bind.
//
// The last parameter is ignored: the planner reads no statistics. It
// stays, with catalog.Database.Stats, because the frozen benchmark probe
// passes it; ROADMAP item 3(d) deletes both.
func BuildPlanWithStats(q *Query, composites []index.Definition, ex *index.Exemptions, _ *index.Stats) (*Plan, error) {
	s, err := PlanShape(q, composites, ex)
	if err != nil {
		return nil, err
	}
	return s.Bind(q)
}

// PlanShape chooses the index set for q's shape in the greedy order of
// §IV-D3: one composite scan, otherwise one automatic-index scan,
// otherwise the zig-zag join with the fewest scans, ties broken by plan
// text. Only a query with no predicates and no order scans the Entities
// table; every other query is served by an index, so its cost follows
// its result. It reads no value of q, so the Shape serves every query of
// q's shape over the same index set. It returns a *NeedsIndexError when
// no usable index set exists, which in production surfaces to the
// developer with a creation link.
func PlanShape(q *Query, composites []index.Definition, ex *index.Exemptions) (*Shape, error) {
	in, err := analyzeQuery(q, composites, ex)
	if err != nil {
		return nil, err
	}
	var best *Shape
	consider := func(scans []Scan) {
		s := &Shape{proto: Plan{Scans: scans, Choice: choiceOf(scans)}, sorts: len(in.sortFields)}
		if best == nil || before(&s.proto, &best.proto) {
			best = s
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
			for _, def := range cover {
				scans = append(scans, Scan{Def: def})
			}
			for _, p := range in.contains {
				scans = append(scans, Scan{Def: index.ContainsDef(in.coll, p)})
			}
			consider(scans)
		}
	case len(in.sortFields) == 0:
		consider([]Scan{{}}) // the Entities table, already in name order
	case len(in.sortFields) == 1:
		consider([]Scan{{Def: index.AutoDef(in.coll, in.sortFields[0].Path, in.sortFields[0].Dir)}})
	default:
		if def := index.CompositeDef(in.coll, in.sortFields...); slices.ContainsFunc(in.composites, func(d index.Definition) bool { return d.ID == def.ID }) {
			consider([]Scan{{Def: def}})
		}
	}
	if best == nil {
		return nil, &NeedsIndexError{Collection: in.coll, Fields: SuggestedFields(q)}
	}
	if len(in.sortFields) > 0 {
		best.dir = in.sortFields[0].Dir
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

func choiceOf(scans []Scan) string {
	switch {
	case len(scans) > 1:
		return "zigzag"
	case scans[0].Def.ID == 0:
		return "entities"
	case scans[0].Def.Kind == index.KindComposite:
		return "composite"
	}
	return "auto"
}

// enumerateCovers returns every distinct set of usable indexes that
// together cover all equality paths. The DFS always extends with a
// candidate covering the first (sorted) uncovered path, so each set is
// emitted exactly once and permutations are never revisited. With no
// equality predicates it yields one empty cover.
func enumerateCovers(in *planInputs) [][]index.Definition {
	uncovered := map[doc.FieldPath]bool{}
	for _, p := range in.eqs {
		uncovered[p] = true
	}
	var out [][]index.Definition
	var sel []index.Definition
	var dfs func()
	dfs = func() {
		if len(out) >= maxCovers {
			return
		}
		if len(uncovered) == 0 {
			out = append(out, slices.Clone(sel))
			return
		}
		var first doc.FieldPath
		for _, p := range in.eqs {
			if uncovered[p] {
				first = p
				break
			}
		}
		for _, c := range in.candidates {
			covers, ok := usable(c, uncovered, in.sortFields)
			if !ok || !slices.Contains(covers, first) {
				continue
			}
			for _, p := range covers {
				delete(uncovered, p)
			}
			sel = append(sel, c)
			dfs()
			sel = sel[:len(sel)-1]
			for _, p := range covers {
				uncovered[p] = true
			}
		}
	}
	dfs()
	return out
}

// planInputs is the analyzed, validated query shape the planner works
// from: the distinct equality paths, sorted; the array-contains paths,
// one per predicate, sorted; the required sort suffix; and the candidate
// index definitions.
type planInputs struct {
	coll       string
	sortFields []index.Field
	eqs        []doc.FieldPath
	contains   []doc.FieldPath
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
		composites: composites,
	}
	for _, p := range q.Predicates {
		if ex.IsExempt(in.coll, p.Path) {
			return nil, fmt.Errorf("query: field %q is exempted from indexing: %w",
				p.Path, &NeedsIndexError{Collection: in.coll, Fields: SuggestedFields(q)})
		}
		switch p.Op {
		case Eq:
			if !slices.Contains(in.eqs, p.Path) {
				in.eqs = append(in.eqs, p.Path)
			}
		case ArrayContains:
			in.contains = append(in.contains, p.Path)
		}
	}
	slices.Sort(in.eqs)
	slices.Sort(in.contains)
	for _, o := range in.sortFields {
		if ex.IsExempt(in.coll, o.Path) {
			return nil, fmt.Errorf("query: order field %q is exempted from indexing: %w",
				o.Path, &NeedsIndexError{Collection: in.coll, Fields: SuggestedFields(q)})
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
		add(index.AutoDef(in.coll, p, index.Ascending))
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
// equality path, ascending; it returns P's paths.
func usable(c index.Definition, uncovered map[doc.FieldPath]bool, sortFields []index.Field) ([]doc.FieldPath, bool) {
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
		if !uncovered[f.Path] || f.Dir != index.Ascending {
			return nil, false
		}
		covers = append(covers, f.Path)
	}
	if split == 0 && len(sortFields) == 0 {
		return nil, false // degenerate: no prefix, no sort
	}
	return covers, true
}

// boundPlan is a Plan with room for the scans of a one- or two-index
// plan, so that Bind allocates the plan and its scans together.
type boundPlan struct {
	Plan
	scans [2]Scan
}

// Bind returns the plan of q, a query of the shape s was planned for:
// each scan's Prefix is its index's collection prefix followed by q's
// equality values for the index's leading fields (or the array-contains
// operand), and Lo and Hi narrow it by q's inequality bounds. Every
// predicate binds: the range is the tightest all of q's inequalities
// allow, and empty when two equalities on one path disagree. The plan
// and its scans are one allocation, and their bytes one arena.
func (s *Shape) Bind(q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	b := &boundPlan{Plan: s.proto}
	b.Query, b.Scans = q, append(b.scans[:0], s.proto.Scans...)
	if b.Scans[0].Def.ID == 0 {
		return &b.Plan, nil // an Entities plan reads no value
	}
	// A slice cut from the arena stays valid if a later append moves it.
	arena, lo, hi := s.appendBounds(make([]byte, 0, 128*len(b.Scans)), q)
	empty := lo != nil && bytes.Compare(lo, hi) >= 0
	for i := range b.Scans {
		sc := &b.Scans[i]
		at := len(arena)
		arena = index.AppendCollectionPrefix(arena, sc.Def.ID, q.Collection)
		if sc.Def.Kind == index.KindContains {
			arena = encoding.EncodeValue(arena, containsValue(b.Scans, i, q))
		} else {
			for _, f := range sc.Def.Fields[:len(sc.Def.Fields)-s.sorts] {
				v, ok := eqValue(q, f.Path)
				empty = empty || !ok
				arena = encoding.EncodeValue(arena, v)
			}
		}
		sc.Prefix = arena[at:len(arena):len(arena)]
		arena = append(arena, lo...)
		sc.Lo = arena[at:len(arena):len(arena)]
		at = len(arena)
		if arena = append(arena, sc.Prefix...); lo != nil {
			arena = append(arena, hi...)
		} else {
			arena = appendSuccessorInPlace(arena, at)
		}
		if sc.Hi = arena[at:len(arena):len(arena)]; len(sc.Hi) == 0 {
			sc.Hi = nil // a prefix of 0xff bytes has no successor
		}
	}
	for i := 0; empty && i < len(b.Scans); i++ {
		b.Scans[i].Hi = b.Scans[i].Lo
	}
	return &b.Plan, nil
}

// eqValue returns the value of q's equality predicates on path, and
// false when two of them disagree (no document matches both).
func eqValue(q *Query, path doc.FieldPath) (v doc.Value, ok bool) {
	found := false
	for _, p := range q.Predicates {
		if p.Op == Eq && p.Path == path {
			if found && !doc.Equal(v, p.Value) {
				return v, false
			}
			v, found = p.Value, true
		}
	}
	return v, true
}

// containsValue returns the operand of the array-contains predicate that
// scans[i] serves: a shape lists its contains scans sorted by path, so
// the k-th on a path takes q's k-th array-contains predicate on it.
func containsValue(scans []Scan, i int, q *Query) doc.Value {
	path := scans[i].Def.Fields[0].Path
	k := 0
	for _, sc := range scans[:i] {
		if sc.Def.Kind == index.KindContains && sc.Def.Fields[0].Path == path {
			k++
		}
	}
	for _, p := range q.Predicates {
		if p.Op == ArrayContains && p.Path == path {
			if k == 0 {
				return p.Value
			}
			k--
		}
	}
	return doc.Value{}
}

// appendBounds appends to buf the sort-suffix bounds of q's inequality
// predicates and returns them, cut from buf: the largest lower bound and
// the smallest upper bound over every predicate's own range, which is
// its operand's type (inequalities match same-type values only)
// narrowed by its operand. Both are nil when q has no inequality.
func (s *Shape) appendBounds(buf []byte, q *Query) (_, lo, hi []byte) {
	asc := s.dir == index.Ascending
	for _, p := range q.Predicates {
		if !p.Op.IsInequality() {
			continue
		}
		tag := encoding.KindTag(p.Value.Kind())
		if !asc {
			tag = ^tag
		}
		// Index keys continue with the document ID after the component,
		// so "past every entry with this exact value" is the PREFIX
		// successor of the value encoding, while the value encoding
		// itself is the inclusive start of those entries.
		at := len(buf)
		if asc {
			buf = encoding.EncodeValue(buf, p.Value)
		} else {
			buf = encoding.EncodeValueDesc(buf, p.Value)
		}
		if (p.Op == Gt || p.Op == Le) == asc {
			if buf = appendSuccessorInPlace(buf, at); len(buf) == at {
				buf = append(buf, tag+1)
			}
		}
		operand := buf[at:len(buf):len(buf)]
		// The operand bounds the low end of the key range when the
		// predicate keeps larger keys (> and >= ascending, < and <=
		// descending), and the type bounds the other end.
		if (p.Op == Gt || p.Op == Ge) == asc {
			buf = append(buf, tag+1)
			lo, hi = tighter(lo, operand, 1), tighter(hi, buf[len(buf)-1:], -1)
		} else {
			buf = append(buf, tag)
			lo, hi = tighter(lo, buf[len(buf)-1:], 1), tighter(hi, operand, -1)
		}
	}
	return buf, lo, hi
}

// tighter returns next when there is no bound yet or next lies beyond
// cur in direction sign (1: larger, for a lower bound; -1: smaller, for
// an upper bound), and cur otherwise.
func tighter(cur, next []byte, sign int) []byte {
	if cur == nil || bytes.Compare(next, cur) == sign {
		return next
	}
	return cur
}

// appendSuccessorInPlace replaces buf[from:] with its prefix successor —
// the smallest byte string past every string it prefixes — or with
// nothing when it is all 0xff bytes.
func appendSuccessorInPlace(buf []byte, from int) []byte {
	for i := len(buf) - 1; i >= from; i-- {
		if buf[i] != 0xff {
			buf[i]++
			return buf[:i+1]
		}
	}
	return buf[:from]
}
