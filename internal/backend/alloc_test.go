package backend

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/query"
)

// TestCommitAllocs holds the write path's allocation count for the
// benchmark's YCSB document — one 900-byte binary field, every byte
// replaced — committed over storage.Mem with the Real-time Cache and
// billing attached: 196 before the path was rebuilt around one encoding
// per byte (DESIGN.md "Write path: who owns the bytes"), 64 after, 59
// now — with the instruments of every layer declared and fed, which the
// layers used to leave out when built without a registry.
func TestCommitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := newEnv(t)
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	values := make([]doc.Value, 8)
	for i := range values {
		v := make([]byte, 900)
		r.Read(v)
		values[i] = doc.Bytes(v)
	}
	ops := []WriteOp{{Kind: OpSet, Name: doc.MustName("/ycsb/user00000042")}}
	i := 0
	commit := func() {
		ops[0].Fields = map[string]doc.Value{"field0": values[i%len(values)]}
		i++
		if _, err := e.b.Commit(ctx, e.dbID, priv, ops); err != nil {
			t.Fatal(err)
		}
	}
	commit() // the create; every run below is an update
	got := testing.AllocsPerRun(200, commit)
	t.Logf("Backend.Commit: %.0f allocations per YCSB update", got)
	if got > 64 {
		t.Errorf("Backend.Commit allocates %.0f times per YCSB update, want <= 64", got)
	}
}

// restaurantFields is the benchmark's query_mix document (benchmark/gen.go
// restaurantData): twelve fields, one array of three strings, one map of
// three.
func restaurantFields(i int) map[string]doc.Value {
	cities := []string{"SF", "NYC", "LA", "SEA"}
	tags := []string{"patio", "late", "cheap", "fancy", "kids", "dogs"}
	return map[string]doc.Value{
		"name":       doc.String(fmt.Sprintf("Restaurant %d", i)),
		"city":       doc.String(cities[i%len(cities)]),
		"category":   doc.String([]string{"bbq", "sushi", "pizza"}[i/len(cities)%3]),
		"price":      doc.Int(int64(i%4 + 1)),
		"avgRating":  doc.Double(float64(i%41)/10 + 1),
		"numRatings": doc.Int(int64(i % 1000)),
		"open":       doc.Bool(i%3 != 0),
		"owner":      doc.String(fmt.Sprintf("owner-%d", i%997)),
		"phone":      doc.String(fmt.Sprintf("+1-555-%07d", i)),
		"createdAt":  doc.Int(int64(1600000000 + i)),
		"tags":       doc.Array(doc.String(tags[i%6]), doc.String(tags[i/6%6]), doc.String(tags[i/36%6])),
		"address": doc.Map(map[string]doc.Value{
			"street": doc.String(fmt.Sprintf("%d Main St", i%900+1)),
			"zip":    doc.String(fmt.Sprintf("%05d", 10000+i%80000)),
			"floor":  doc.Int(int64(i % 7)),
		}),
	}
}

// TestQueryAllocs holds the read path's allocation count above the
// engine for the benchmark's most common query: one equality, limit 20,
// over the restaurant document on storage.Mem. 1 181 per RunQuery before
// the decode diet (DESIGN.md "Read path: who owns the bytes"), of which
// ~57 per returned document; the second bound is that marginal cost.
func TestQueryAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under -race; allocation counts mean nothing")
	}
	e := newEnv(t)
	ctx := context.Background()
	for i := 0; i < 400; i++ {
		set(t, e, fmt.Sprintf("/restaurants/r%06d", i), restaurantFields(i))
	}
	run := func(limit int) float64 {
		q := &query.Query{
			Collection: doc.MustCollection("/restaurants"),
			Predicates: []query.Predicate{{Path: "city", Op: query.Eq, Value: doc.String("LA")}},
			Limit:      limit,
		}
		return testing.AllocsPerRun(100, func() {
			res, _, err := e.b.RunQuery(ctx, e.dbID, priv, q, nil, 0)
			if err != nil || len(res.Docs) != limit {
				t.Fatalf("RunQuery: %d documents, %v", len(res.Docs), err)
			}
		})
	}
	at20, at60 := run(20), run(60)
	perDoc := (at60 - at20) / 40
	t.Logf("Backend.RunQuery: %.0f allocations at limit 20, %.1f per extra document", at20, perDoc)
	if at20 > 450 {
		t.Errorf("Backend.RunQuery allocates %.0f times at limit 20, want <= 450", at20)
	}
	if perDoc > 20 {
		t.Errorf("Backend.RunQuery allocates %.1f times per extra returned document, want <= 20", perDoc)
	}
}
