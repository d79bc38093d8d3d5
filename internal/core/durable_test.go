package core

import (
	"context"
	"fmt"
	"testing"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
)

// TestRegionDurableRestart: a region on a StorageDir recovers every
// committed document — and the index entries queries depend on — after a
// full close + reopen, including state flushed to segments.
func TestRegionDurableRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := Config{Name: "durable", StorageDir: dir, MemtableCap: 4 << 10}

	r, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	const docs = 60
	for i := 0; i < docs; i++ {
		_, err := r.Commit(ctx, "app", priv, []backend.WriteOp{{
			Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/cities/c%03d", i)),
			Fields: map[string]doc.Value{
				"name": doc.String(fmt.Sprintf("city-%03d", i)),
				"pop":  doc.Int(int64(i * 1000)),
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	r.Close()

	re, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The catalog registry is in-memory; placement is a deterministic
	// hash of the ID, so re-creating the database rebinds the same
	// directory prefix in the same recovered pool database.
	if _, err := re.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	d, _, err := re.GetDocument(ctx, "app", priv, doc.MustName("/cities/c007"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Fields["name"].StringVal(); got != "city-007" {
		t.Fatalf("recovered doc name = %q", got)
	}
	res, _, err := re.RunQuery(ctx, "app", priv, &query.Query{
		Collection: doc.MustCollection("/cities"),
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != docs {
		t.Fatalf("recovered query returned %d docs, want %d", len(res.Docs), docs)
	}
	// A recovered region keeps serving writes that survive yet another
	// restart (timestamps must have resumed past the recovered horizon).
	if _, err := re.Commit(ctx, "app", priv, []backend.WriteOp{{
		Kind: backend.OpSet, Name: doc.MustName("/cities/c007"),
		Fields: map[string]doc.Value{"name": doc.String("renamed")},
	}}); err != nil {
		t.Fatal(err)
	}
	d, _, err = re.GetDocument(ctx, "app", priv, doc.MustName("/cities/c007"), 0)
	if err != nil || d.Fields["name"].StringVal() != "renamed" {
		t.Fatalf("post-recovery write not visible: %v, %v", d, err)
	}
	re.Close()

	r3, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if _, err := r3.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	d, _, err = r3.GetDocument(ctx, "app", priv, doc.MustName("/cities/c007"), 0)
	if err != nil || d.Fields["name"].StringVal() != "renamed" {
		t.Fatalf("second recovery lost post-recovery write: %v, %v", d, err)
	}
}

// TestPlanSurvivesRestart: a plan is a function of the query and the
// index set, so a restarted Disk region plans an equality query onto the
// field's index however few writes it has seen since — the query visits
// what it returns, not the collection.
func TestPlanSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := Config{Name: "durable", StorageDir: dir}
	r, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	setF := func(r *Region, from, to, plus int) {
		var ops []backend.WriteOp
		for i := from; i < to; i++ {
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/c/d%03d", i)),
				Fields: map[string]doc.Value{"f": doc.Int(int64(plus + i))}})
		}
		if _, err := r.Commit(ctx, "app", priv, ops); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i += 100 {
		setF(r, i, i+100, 0)
	}
	r.Close()

	re, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		setF(re, i, i+1, 1000)
	}
	q := &query.Query{Collection: doc.MustCollection("/c"), Limit: 20,
		Predicates: []query.Predicate{{Path: "f", Op: query.Eq, Value: doc.Int(1003)}}}
	res, _, err := re.RunQuery(ctx, "app", priv, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 1 || res.ScannedEntries > 21 {
		t.Fatalf("%s: %d results for %d entries scanned, want 1 for <= 21", q, len(res.Docs), res.ScannedEntries)
	}
	pe, _, err := re.Backend.ExplainQuery(ctx, "app", priv, q, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "scan index(c: f asc)"; pe.Plan != want {
		t.Fatalf("explain %q, want %q", pe.Plan, want)
	}
}

// TestCompositeReAddedAfterRestart: the catalog does not survive a
// restart, so writes made before a composite is re-added do not maintain
// it, and its entries from before the restart go stale. Re-adding it must
// remove them: the executor trusts index entries, so a stale one returns
// a document the query does not match.
func TestCompositeReAddedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := Config{Name: "durable", StorageDir: dir}
	def := index.CompositeDef("cities",
		index.Field{Path: "state", Dir: index.Ascending},
		index.Field{Path: "pop", Dir: index.Ascending})
	setCity := func(r *Region, state string) {
		if _, err := r.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: doc.MustName("/cities/sf"),
			Fields: map[string]doc.Value{"state": doc.String(state), "pop": doc.Int(870)}}}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCompositeIndex(ctx, "app", def); err != nil {
		t.Fatal(err)
	}
	setCity(r, "CA")
	r.Close()

	re, err := OpenRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	setCity(re, "NV")
	if err := re.AddCompositeIndex(ctx, "app", def); err != nil {
		t.Fatal(err)
	}
	res, _, err := re.RunQuery(ctx, "app", priv, &query.Query{
		Collection: doc.MustCollection("/cities"),
		Predicates: []query.Predicate{{Path: "state", Op: query.Eq, Value: doc.String("CA")}},
		Orders:     []query.Order{{Path: "pop", Dir: index.Ascending}},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Docs {
		t.Errorf("state == CA returned %s with state %v", d.Name, d.Fields["state"])
	}
	report, err := re.Backend.ValidateDatabase(ctx, "app")
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("validation after the re-add: %v (orphans %v)", report, report.OrphanEntries)
	}
}
