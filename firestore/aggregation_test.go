package firestore

import (
	"context"
	"fmt"
	"testing"
)

func TestAggregationQuery(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		city := "SF"
		if i%2 == 1 {
			city = "NY"
		}
		if err := c.Collection("r").Doc(fmt.Sprintf("d%d", i)).Set(ctx, map[string]any{
			"city": city, "score": i,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Whole collection: count, sum, and avg in one request.
	res, err := c.Collection("r").Query().
		NewAggregationQuery().
		WithCount("n").
		WithSum("score", "total").
		WithAvg("score", "mean").
		Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := res["n"]; got != int64(10) {
		t.Errorf("count = %v (%T), want 10", got, got)
	}
	if got := res["total"]; got != int64(45) {
		t.Errorf("sum = %v (%T), want 45", got, got)
	}
	if got := res["mean"]; got != 4.5 {
		t.Errorf("avg = %v, want 4.5", got)
	}

	// AVG over no numeric values is nil.
	res, err = c.Collection("r").Query().
		NewAggregationQuery().WithAvg("absent", "a").WithSum("absent", "s").Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res["a"] != nil {
		t.Errorf("avg(absent) = %v, want nil", res["a"])
	}
	if res["s"] != int64(0) {
		t.Errorf("sum(absent) = %v, want 0", res["s"])
	}

	// No aggregations is a client-side error.
	if _, err := c.Collection("r").Query().NewAggregationQuery().Get(ctx); err == nil {
		t.Error("empty aggregation query should fail")
	}
}
