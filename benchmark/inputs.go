package main

import (
	"fmt"

	"firestore/firestore"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
)

// querySpec is one query in both renderings: the SDK builder the
// workloads issue and the internal form the lower layers take.
type querySpec struct {
	collection string
	eq         []eqPred
	orderBy    string
	desc       bool
	limit      int
}

type eqPred struct {
	field string
	value any
}

func (s querySpec) sdk(cl *firestore.Client) firestore.Query {
	q := cl.Collection(s.collection).Query()
	for _, p := range s.eq {
		q = q.Where(p.field, "==", p.value)
	}
	if s.orderBy != "" {
		dir := firestore.Asc
		if s.desc {
			dir = firestore.Desc
		}
		q = q.OrderBy(s.orderBy, dir)
	}
	if s.limit > 0 {
		q = q.Limit(s.limit)
	}
	return q
}

func (s querySpec) internal() *query.Query {
	q := &query.Query{Collection: doc.MustCollection("/" + s.collection), Limit: s.limit}
	for _, p := range s.eq {
		q.Predicates = append(q.Predicates, query.Predicate{Path: doc.FieldPath(p.field), Op: query.Eq, Value: toValue(p.value)})
	}
	if s.orderBy != "" {
		dir := index.Ascending
		if s.desc {
			dir = index.Descending
		}
		q.Orders = []query.Order{{Path: doc.FieldPath(s.orderBy), Dir: dir}}
	}
	return q
}

// toValue converts the Go values the generator produces to document
// values, as the SDK does for the same inputs.
func toValue(v any) doc.Value {
	switch x := v.(type) {
	case bool:
		return doc.Bool(x)
	case int64:
		return doc.Int(x)
	case float64:
		return doc.Double(x)
	case string:
		return doc.String(x)
	case []byte:
		return doc.Bytes(x)
	case []any:
		arr := make([]doc.Value, len(x))
		for i, e := range x {
			arr[i] = toValue(e)
		}
		return doc.Array(arr...)
	case map[string]any:
		return doc.Map(toFields(x))
	}
	panic(fmt.Sprintf("benchmark: generator produced a %T", v))
}

func toFields(data map[string]any) map[string]doc.Value {
	out := make(map[string]doc.Value, len(data))
	for k, v := range data {
		out[k] = toValue(v)
	}
	return out
}

// probeWrite is one sampled write: the document it wrote and the version
// it replaced (nil when the write created the document).
type probeWrite struct {
	id        string
	data, old map[string]any
}

// probeInputs is what a workload hands the probes: every k-th generated
// write, the queries it issues, and the composite indexes it created.
type probeInputs struct {
	collection string
	composites []index.Definition
	writes     []probeWrite
	queries    []querySpec
}
