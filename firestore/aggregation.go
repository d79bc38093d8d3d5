package firestore

import (
	"context"

	"firestore/internal/doc"
	"firestore/internal/query"
	"firestore/internal/status"
)

// AggregationQuery computes server-side aggregations (COUNT, SUM, AVG)
// over a query's result set. All requested aggregations resolve at one
// consistent read timestamp, entirely from index entries — no documents
// are fetched or returned, and billing charges by index entries scanned
// rather than per matching document.
//
//	res, err := client.Collection("restaurants").
//		Where("city", "==", "SF").
//		NewAggregationQuery().
//		WithCount("n").
//		WithSum("numRatings", "total").
//		WithAvg("avgRating", "rating").
//		Get(ctx)
type AggregationQuery struct {
	q    Query
	aggs []query.Aggregation
}

// NewAggregationQuery starts an aggregation request over q's result set.
func (q Query) NewAggregationQuery() *AggregationQuery {
	return &AggregationQuery{q: q}
}

// WithCount adds a COUNT of the matching documents under the given
// result alias.
func (a *AggregationQuery) WithCount(alias string) *AggregationQuery {
	a.aggs = append(a.aggs, query.Aggregation{Kind: query.AggCount, Alias: alias})
	return a
}

// WithSum adds a SUM of the field's numeric values under the given
// alias. Documents missing the field or holding a non-numeric value are
// skipped; the sum of no numeric values is the integer 0.
func (a *AggregationQuery) WithSum(fieldPath, alias string) *AggregationQuery {
	a.aggs = append(a.aggs, query.Aggregation{Kind: query.AggSum, Path: doc.FieldPath(fieldPath), Alias: alias})
	return a
}

// WithAvg adds an AVG of the field's numeric values under the given
// alias. Documents missing the field or holding a non-numeric value are
// skipped; the average of no numeric values is nil.
func (a *AggregationQuery) WithAvg(fieldPath, alias string) *AggregationQuery {
	a.aggs = append(a.aggs, query.Aggregation{Kind: query.AggAvg, Path: doc.FieldPath(fieldPath), Alias: alias})
	return a
}

// AggregationResult maps each aggregation's alias to its value: int64
// for COUNT, int64 or float64 for SUM, float64 (or nil over no numeric
// values) for AVG.
type AggregationResult map[string]any

// Get executes every requested aggregation at one consistent snapshot.
func (a *AggregationQuery) Get(ctx context.Context) (AggregationResult, error) {
	iq, err := a.q.build()
	if err != nil {
		return nil, err
	}
	if len(a.aggs) == 0 {
		return nil, status.New(status.InvalidArgument, "firestore", "aggregation query has no aggregations")
	}
	var res *query.AggregationResult
	err = status.Retry(ctx, maxRPCAttempts, func() error {
		var err error
		res, _, err = a.q.c.region.Backend.RunAggregation(ctx, a.q.c.dbID, a.q.c.p, iq, a.aggs, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(AggregationResult, len(res.Values))
	for alias, v := range res.Values {
		out[alias] = fromValue(v)
	}
	return out, nil
}
