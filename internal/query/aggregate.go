package query

import (
	"context"
	"fmt"

	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
	"firestore/internal/status"
)

// This file implements server-side aggregations, the extension §VIII
// sketches: "a COUNT query returns a single value but may count millions
// of documents". COUNT, SUM, and AVG all execute entirely on index
// entries — SUM/AVG decode the aggregated field's value straight out of
// the index key's sort suffix via encoding.DecodeValue — so aggregations
// never materialize documents, and the caller bills by index entries
// scanned rather than the single result returned.

// AggKind selects an aggregation function.
type AggKind int

const (
	AggCount AggKind = iota
	AggSum
	AggAvg
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	default:
		return "count"
	}
}

// Aggregation is one requested aggregation over a query's result set.
type Aggregation struct {
	Kind  AggKind
	Path  doc.FieldPath // aggregated field; empty for COUNT
	Alias string        // result key
}

// AggregationResult is one request's aggregated values, all computed at
// a single read timestamp.
type AggregationResult struct {
	// Values maps each aggregation's alias to its value: COUNT an Int,
	// SUM an Int or Double (Int(0) over no numeric values), AVG a
	// Double (Null over no numeric values).
	Values map[string]doc.Value
	// ScannedEntries is the index work performed, the billing unit for
	// aggregations (§VIII: "such extensions cannot break the
	// pay-as-you-go billing"). It is reported even on error so partial
	// work is billed.
	ScannedEntries int
}

// Aggregation request shape errors.
var (
	ErrAggEmpty        = status.New(status.InvalidArgument, "query", "at least one aggregation is required")
	ErrAggAlias        = status.New(status.InvalidArgument, "query", "aggregation aliases must be unique and non-empty")
	ErrAggPath         = status.New(status.InvalidArgument, "query", "sum/avg require a field path; count takes none")
	ErrAggCursor       = status.New(status.InvalidArgument, "query", "aggregation queries do not support cursors")
	ErrAggLimitOffset  = status.New(status.InvalidArgument, "query", "sum/avg do not support limit or offset")
	errAggSumAvgEntity = status.New(status.Internal, "query", "sum/avg planned onto an Entities scan")
)

// ValidateAggregations checks an aggregation request's shape against the
// base query.
func ValidateAggregations(q *Query, aggs []Aggregation) error {
	if len(aggs) == 0 {
		return ErrAggEmpty
	}
	if q.Start != nil || q.End != nil {
		return ErrAggCursor
	}
	seen := map[string]bool{}
	for _, a := range aggs {
		if a.Alias == "" || seen[a.Alias] {
			return fmt.Errorf("%w: %q", ErrAggAlias, a.Alias)
		}
		seen[a.Alias] = true
		switch a.Kind {
		case AggCount:
			if a.Path != "" {
				return fmt.Errorf("%w: count(%s)", ErrAggPath, a.Path)
			}
		case AggSum, AggAvg:
			if a.Path == "" {
				return ErrAggPath
			}
			if q.Limit > 0 || q.Offset > 0 {
				return ErrAggLimitOffset
			}
		default:
			return fmt.Errorf("%w: unknown aggregation kind %d", ErrAggPath, a.Kind)
		}
	}
	return nil
}

// ExecuteAggregations resolves all requested aggregations against one
// storage snapshot. COUNT runs on the base query's plan; each distinct
// SUM/AVG field runs on a variant query whose order suffix carries the
// field, so its value decodes straight from the index key (one scan is
// shared by every aggregation over the same field). The planner callback
// plans each (variant) query — the backend passes its cost-based
// planner; tests plan without statistics.
//
// On error the partial result is still returned so callers bill the
// entries already visited.
func ExecuteAggregations(ctx context.Context, st Storage, q *Query, aggs []Aggregation, planner func(*Query) (*Plan, error)) (*AggregationResult, error) {
	if err := ValidateAggregations(q, aggs); err != nil {
		return nil, err
	}
	res := &AggregationResult{Values: map[string]doc.Value{}}

	var counts []Aggregation
	byField := map[doc.FieldPath][]Aggregation{}
	var fields []doc.FieldPath
	for _, a := range aggs {
		if a.Kind == AggCount {
			counts = append(counts, a)
			continue
		}
		if _, ok := byField[a.Path]; !ok {
			fields = append(fields, a.Path)
		}
		byField[a.Path] = append(byField[a.Path], a)
	}

	if len(counts) > 0 {
		p, err := planner(q)
		if err != nil {
			return res, err
		}
		cr, err := p.ExecuteCount(ctx, st)
		if cr != nil {
			res.ScannedEntries += cr.ScannedEntries
		}
		if err != nil {
			return res, err
		}
		for _, a := range counts {
			res.Values[a.Alias] = doc.Int(cr.Count)
		}
	}

	for _, f := range fields {
		acc, visited, err := aggregateField(ctx, st, q, f, planner)
		res.ScannedEntries += visited
		if err != nil {
			return res, err
		}
		for _, a := range byField[f] {
			if a.Kind == AggSum {
				res.Values[a.Alias] = acc.sum()
			} else {
				res.Values[a.Alias] = acc.avg()
			}
		}
	}
	return res, nil
}

// aggregateField scans an index whose sort suffix carries field f and
// folds every matching entry's decoded value into a numeric
// accumulator, without fetching documents.
func aggregateField(ctx context.Context, st Storage, q *Query, f doc.FieldPath, planner func(*Query) (*Plan, error)) (*numAccum, int, error) {
	qf, pos := fieldVariant(q, f)
	p, err := planner(qf)
	if err != nil {
		return nil, 0, err
	}
	if p.Scans[0].Def.ID == 0 {
		// Cannot happen: qf always has a non-empty order suffix, which
		// excludes the Entities alternative. Guard anyway — decoding a
		// field from an Entities row is impossible.
		return nil, 0, errAggSumAvgEntity
	}
	sortFields := sortFieldsOf(qf)
	acc := &numAccum{}
	var decErr error
	visited, err := p.walkIndexOnly(ctx, st, func(suffix []byte) bool {
		v, derr := decodeSuffixComponent(suffix, sortFields, pos)
		if derr != nil {
			decErr = derr
			return false
		}
		acc.add(v)
		return true
	})
	if err == nil {
		err = decErr
	}
	return acc, visited, err
}

// fieldVariant returns the query used to aggregate field f — q with f
// appended to its effective orders when absent — and f's component
// position within the variant's sort suffix. Ordering by f also
// requires f to exist, matching the production semantics of SUM/AVG
// skipping documents without the field.
func fieldVariant(q *Query, f doc.FieldPath) (*Query, int) {
	orders := q.EffectiveOrders()
	for i, o := range orders {
		if o.Path == f {
			return q, i
		}
	}
	qf := *q
	qf.Orders = append(append([]Order(nil), orders...), Order{Path: f, Dir: index.Ascending})
	return &qf, len(orders)
}

// decodeSuffixComponent decodes the pos'th sort component out of an
// index entry's join suffix (sort values then the escaped document ID),
// honoring each component's direction.
func decodeSuffixComponent(suffix []byte, sortFields []index.Field, pos int) (doc.Value, error) {
	i := 0
	for k := 0; k <= pos; k++ {
		var (
			v   doc.Value
			n   int
			err error
		)
		if sortFields[k].Dir == index.Descending {
			v, n, err = encoding.DecodeValueDesc(suffix[i:])
		} else {
			v, n, err = encoding.DecodeValue(suffix[i:])
		}
		if err != nil {
			return doc.Value{}, fmt.Errorf("query: corrupt index suffix at component %d: %w", k, err)
		}
		if k == pos {
			return v, nil
		}
		i += n
	}
	return doc.Value{}, fmt.Errorf("query: sort component %d out of range", pos)
}

// numAccum folds numeric values for SUM/AVG: integer-exact until the
// running sum overflows int64 or a double appears, then float64. NaN
// propagates, matching IEEE and production behavior. Non-numeric values
// are skipped, per the production SUM/AVG semantics.
type numAccum struct {
	isFloat bool
	i       int64
	f       float64
	n       int64
}

func (a *numAccum) add(v doc.Value) {
	if v.Kind() != doc.KindNumber {
		return
	}
	a.n++
	if v.IsInt() && !a.isFloat {
		x := v.IntVal()
		s := a.i + x
		if (x > 0 && s < a.i) || (x < 0 && s > a.i) {
			a.isFloat = true
			a.f = float64(a.i) + float64(x)
			return
		}
		a.i = s
		return
	}
	if !a.isFloat {
		a.isFloat = true
		a.f = float64(a.i)
	}
	if v.IsInt() {
		a.f += float64(v.IntVal())
	} else {
		a.f += v.DoubleVal()
	}
}

func (a *numAccum) sum() doc.Value {
	if a.isFloat {
		return doc.Double(a.f)
	}
	return doc.Int(a.i)
}

func (a *numAccum) avg() doc.Value {
	if a.n == 0 {
		return doc.Null()
	}
	if a.isFloat {
		return doc.Double(a.f / float64(a.n))
	}
	return doc.Double(float64(a.i) / float64(a.n))
}
