package query

import (
	"sort"

	"firestore/internal/doc"
	"firestore/internal/index"
)

// Stats is the planner's window into index cardinalities. It is
// implemented by *index.Stats; a nil interface plans with zero
// estimates, which degrades to the historical greedy preference order.
type Stats interface {
	// IndexEntries returns the total entry count of an index.
	IndexEntries(id uint64) int64
	// PrefixEntries estimates the entries of an index beginning with a
	// key prefix (the equality-covered portion of a scan).
	PrefixEntries(id uint64, prefix []byte) int64
	// CollectionDocs returns the document count of a collection path.
	CollectionDocs(collection string) int64
}

const (
	// entitiesCostWeight prices one Entities row visit relative to one
	// index-entry visit: a full scan decodes the whole document and
	// evaluates every predicate against it, where an index scan touches
	// one small sorted key.
	entitiesCostWeight = 4
	// maxAlternatives bounds how many enumerated plans are kept (and
	// how many covers the DFS explores); queries with that many legal
	// index covers are adversarial, not real.
	maxAlternatives = 32
)

// Alternative is one enumerated plan with its cost estimate.
type Alternative struct {
	Plan *Plan
	Cost int64
}

// BuildPlanWithStats plans q by enumerating the legal alternatives and
// picking the cheapest by estimated entries visited (§IV-D3 extended
// with cardinality input). With nil stats every estimate is zero and
// the tie-break reproduces the paper's greedy index-set selection. It
// returns a *NeedsIndexError when no usable index set exists, which in
// production surfaces to the developer with a creation link.
func BuildPlanWithStats(q *Query, composites []index.Definition, ex *index.Exemptions, stats Stats) (*Plan, error) {
	alts, err := EnumeratePlans(q, composites, ex, stats)
	if err != nil {
		return nil, err
	}
	return alts[0].Plan, nil
}

// EnumeratePlans generates every legal plan alternative for q — single
// composite scans, zig-zag join sets, and the Entities full scan with a
// residual filter — costed by estimated entries visited and sorted
// cheapest-first. It returns a *NeedsIndexError when no alternative
// exists.
func EnumeratePlans(q *Query, composites []index.Definition, ex *index.Exemptions, stats Stats) ([]Alternative, error) {
	in, err := analyzeQuery(q, composites, ex)
	if err != nil {
		return nil, err
	}

	// Array-contains scans join only on the document ID, so they are
	// incompatible with a non-empty sort suffix (a composite would be
	// required) — same failure the greedy planner reported.
	if len(in.contains) > 0 && len(in.sortFields) > 0 {
		return nil, &NeedsIndexError{Collection: in.coll, Fields: requiredFields(q)}
	}

	var alts []Alternative

	// Index-backed alternatives: one plan per distinct cover of the
	// equality predicates, plus one contains scan per array predicate.
	for _, cover := range enumerateCovers(in) {
		scans := make([]Scan, 0, len(cover)+len(in.contains))
		for _, c := range cover {
			scans = append(scans, buildScan(q, c.def, c.values))
		}
		for _, p := range in.contains {
			scans = append(scans, buildScan(q, index.ContainsDef(in.coll, p.Path), []doc.Value{p.Value}))
		}
		if len(scans) == 0 {
			continue // no predicates at all; handled below
		}
		alts = append(alts, finishPlan(q, in, scans, stats, false))
	}

	// No equality or contains predicates: the sort alone needs one
	// covering index.
	if len(in.eqs) == 0 && len(in.contains) == 0 {
		switch {
		case len(in.sortFields) == 1:
			def := index.AutoDef(in.coll, in.sortFields[0].Path, in.sortFields[0].Dir)
			alts = append(alts, finishPlan(q, in, []Scan{buildScan(q, def, nil)}, stats, false))
		case len(in.sortFields) > 1:
			def := index.CompositeDef(in.coll, in.sortFields...)
			if hasComposite(in.composites, def.ID) {
				alts = append(alts, finishPlan(q, in, []Scan{buildScan(q, def, nil)}, stats, false))
			}
		}
	}

	// Entities full scan + residual filter: legal whenever the query
	// needs no index-provided order (an explicit order or inequality
	// forces index order, so this arm never meets suffix bounds).
	if len(in.sortFields) == 0 {
		scans := []Scan{buildScan(q, index.Definition{}, nil)}
		alts = append(alts, finishPlan(q, in, scans, stats, len(q.Predicates) > 0))
	}

	if len(alts) == 0 {
		return nil, &NeedsIndexError{Collection: in.coll, Fields: requiredFields(q)}
	}
	sort.Slice(alts, func(i, j int) bool {
		a, b := alts[i], alts[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if ra, rb := choiceRank(a.Plan.Choice), choiceRank(b.Plan.Choice); ra != rb {
			return ra < rb
		}
		if len(a.Plan.Scans) != len(b.Plan.Scans) {
			return len(a.Plan.Scans) < len(b.Plan.Scans)
		}
		return a.Plan.String() < b.Plan.String()
	})
	if len(alts) > maxAlternatives {
		alts = alts[:maxAlternatives]
	}
	return alts, nil
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
		if len(out) >= maxAlternatives {
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
			if !ok || len(covers) == 0 {
				continue
			}
			coversFirst := false
			for _, p := range covers {
				if p == first {
					coversFirst = true
					break
				}
			}
			if !coversFirst {
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

// finishPlan applies inequality suffix bounds, then attaches the cost
// estimate and choice label.
func finishPlan(q *Query, in *planInputs, scans []Scan, stats Stats, residual bool) Alternative {
	if len(in.ineqs) > 0 {
		lo, hi := suffixBounds(in.ineqs, in.sortFields[0].Dir)
		for i := range scans {
			scans[i].Lo = append(append([]byte(nil), scans[i].Prefix...), lo...)
			if hi != nil {
				scans[i].Hi = append(append([]byte(nil), scans[i].Prefix...), hi...)
			}
		}
	}
	p := &Plan{Query: q, Scans: scans, Residual: residual}
	p.Cost = planCost(p, stats)
	p.Choice = planChoice(p)
	return Alternative{Plan: p, Cost: p.Cost}
}

// planCost estimates the index entries (or weighted Entities rows) the
// plan will visit:
//
//   - single scan: entries under the scan's equality prefix;
//   - zig-zag join: each side visits at most its own prefix entries,
//     but the join is driven by the smallest side, so a larger side
//     visits about min-side entries plus one refill batch;
//   - Entities scan: every document of the collection, weighted by
//     entitiesCostWeight.
func planCost(p *Plan, stats Stats) int64 {
	if stats == nil {
		return 0
	}
	if p.Scans[0].Def.ID == 0 {
		return entitiesCostWeight * stats.CollectionDocs(p.Query.Collection.String())
	}
	if len(p.Scans) == 1 {
		return stats.PrefixEntries(p.Scans[0].Def.ID, p.Scans[0].Prefix)
	}
	ests := make([]int64, len(p.Scans))
	m := int64(-1)
	for i, sc := range p.Scans {
		ests[i] = stats.PrefixEntries(sc.Def.ID, sc.Prefix)
		if m < 0 || ests[i] < m {
			m = ests[i]
		}
	}
	var total int64
	for _, e := range ests {
		c := m + iterBatch
		if e < c {
			c = e
		}
		total += c
	}
	return total
}

// planChoice labels the plan family for metrics and EXPLAIN.
func planChoice(p *Plan) string {
	switch {
	case len(p.Scans) > 1:
		return "zigzag"
	case p.Scans[0].Def.ID == 0:
		return "entities"
	case p.Scans[0].Def.Kind == index.KindComposite:
		return "composite"
	default:
		return "auto"
	}
}

// choiceRank is the zero-statistics tie-break: prefer the fewest-scan,
// most-selective family, reproducing the greedy planner's preferences
// (single composite, then single auto, then zig-zag, then full scan).
func choiceRank(choice string) int {
	switch choice {
	case "composite":
		return 0
	case "auto":
		return 1
	case "zigzag":
		return 2
	default:
		return 3
	}
}
