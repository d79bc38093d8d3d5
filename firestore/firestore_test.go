package firestore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/rules"
	"firestore/internal/status"
)

func newClient(t *testing.T) *Client {
	t.Helper()
	region := core.NewRegion(core.Config{})
	t.Cleanup(region.Close)
	if _, err := region.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	return NewClient(region, "app")
}

func TestSetGetRoundTrip(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	ref := c.Collection("restaurants").Doc("one")
	data := map[string]any{
		"name":       "Burger Garden",
		"avgRating":  4.5,
		"numRatings": 10,
		"open":       true,
		"tags":       []any{"bbq", "casual"},
		"address":    map[string]any{"city": "SF", "zip": 94105},
		"geo":        GeoPoint{37.7, -122.4},
		"owner":      Ref("/users/alice"),
		"opened":     time.Unix(1700000000, 0).UTC(),
		"photo":      []byte{1, 2, 3},
		"nothing":    nil,
	}
	if err := ref.Set(ctx, data); err != nil {
		t.Fatal(err)
	}
	snap, err := ref.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Exists() {
		t.Fatal("doc missing")
	}
	got := snap.Data()
	if got["name"] != "Burger Garden" || got["avgRating"] != 4.5 || got["numRatings"] != int64(10) {
		t.Fatalf("data = %#v", got)
	}
	if got["open"] != true || got["nothing"] != nil {
		t.Fatalf("data = %#v", got)
	}
	if got["geo"].(GeoPoint).Lat != 37.7 || got["owner"].(Ref) != "/users/alice" {
		t.Fatalf("data = %#v", got)
	}
	if v, ok := snap.DataAt("address.city"); !ok || v != "SF" {
		t.Fatalf("DataAt = %v, %v", v, ok)
	}
	if _, ok := snap.DataAt("address.missing"); ok {
		t.Fatal("missing nested field found")
	}
	if snap.CreateTime.IsZero() || snap.UpdateTime.IsZero() {
		t.Fatal("timestamps missing")
	}
	// The service's timestamp range is years 0001-9999: the zero Time is
	// storable, a year the value's microseconds cannot reach is refused.
	if err := ref.Set(ctx, map[string]any{"t": time.Time{}}); err != nil {
		t.Fatalf("zero time: %v", err)
	}
	for _, y := range []int{0, 10_000, 400_000, -400_000} {
		err := ref.Set(ctx, map[string]any{"nested": []any{time.Date(y, 6, 1, 0, 0, 0, 0, time.UTC)}})
		if status.CodeOf(err) != status.InvalidArgument {
			t.Errorf("timestamp in year %d: err = %v, want InvalidArgument", y, err)
		}
	}
}

func TestGetMissing(t *testing.T) {
	c := newClient(t)
	snap, err := c.Collection("c").Doc("ghost").Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Exists() || snap.Data() != nil {
		t.Fatal("missing doc exists")
	}
	if _, ok := snap.DataAt("x"); ok {
		t.Fatal("DataAt on missing doc")
	}
}

func TestCreateUpdateDelete(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	ref := c.Collection("c").Doc("x")
	if err := ref.Update(ctx, map[string]any{"v": 1}); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("Update missing = %v", err)
	}
	if err := ref.Create(ctx, map[string]any{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Create(ctx, map[string]any{"v": 2}); !errors.Is(err, backend.ErrAlreadyExists) {
		t.Fatalf("double Create = %v", err)
	}
	if err := ref.Update(ctx, map[string]any{"v": 2}); err != nil {
		t.Fatal(err)
	}
	if err := ref.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	snap, _ := ref.Get(ctx)
	if snap.Exists() {
		t.Fatal("doc survives delete")
	}
}

func TestPathHelpers(t *testing.T) {
	c := newClient(t)
	sub := c.Collection("restaurants").Doc("one").Collection("ratings")
	if sub.Path() != "/restaurants/one/ratings" {
		t.Fatalf("sub path = %s", sub.Path())
	}
	ref := sub.Doc("2")
	if ref.Path() != "/restaurants/one/ratings/2" || ref.ID() != "2" {
		t.Fatalf("ref = %s", ref.Path())
	}
	if c.Doc("restaurants/one").Path() != "/restaurants/one" {
		t.Fatal("Doc path helper")
	}
	// Bad paths surface on use, not at construction.
	bad := c.Collection("odd/segments")
	if err := bad.Doc("x").Set(context.Background(), nil); err == nil {
		t.Fatal("bad collection path accepted")
	}
	a, b := sub.NewDoc(), sub.NewDoc()
	if a.ID() == b.ID() || len(a.ID()) != 20 {
		t.Fatalf("NewDoc ids: %q, %q", a.ID(), b.ID())
	}
}

func TestQueryBuilder(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		city := []string{"SF", "NY"}[i%2]
		err := c.Collection("restaurants").Doc(fmt.Sprintf("r%02d", i)).Set(ctx, map[string]any{
			"city": city, "rating": i % 5, "name": fmt.Sprintf("R%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	docs, err := c.Collection("restaurants").Where("city", "==", "SF").GetAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 10 {
		t.Fatalf("city==SF: %d docs", len(docs))
	}
	docs, err = c.Collection("restaurants").
		Where("rating", ">=", 3).
		OrderBy("rating", Desc).
		Limit(5).
		GetAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 5 {
		t.Fatalf("top-5: %d docs", len(docs))
	}
	prev := int64(99)
	for _, d := range docs {
		v, _ := d.DataAt("rating")
		if v.(int64) > prev {
			t.Fatal("not descending")
		}
		prev = v.(int64)
	}
	// Projection.
	docs, err = c.Collection("restaurants").Where("city", "==", "NY").Select("name").GetAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if len(d.Data()) != 1 {
			t.Fatalf("projected fields = %v", d.Data())
		}
	}
	// Unknown operator.
	if _, err := c.Collection("restaurants").Where("city", "~", 1).GetAll(ctx); err == nil {
		t.Fatal("bad operator accepted")
	}
	// Invalid query shape.
	_, err = c.Collection("restaurants").Where("a", ">", 1).Where("b", "<", 2).GetAll(ctx)
	if err == nil {
		t.Fatal("two-field inequality accepted")
	}
}

func TestRunTransactionRetries(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	ref := c.Collection("counters").Doc("hits")
	if err := ref.Set(ctx, map[string]any{"n": 0}); err != nil {
		t.Fatal(err)
	}
	// Concurrent increments: every one must land exactly once.
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := c.RunTransaction(ctx, func(tx *Transaction) error {
				snap, err := tx.Get(ref)
				if err != nil {
					return err
				}
				n, _ := snap.DataAt("n")
				return tx.Set(ref, map[string]any{"n": n.(int64) + 1})
			})
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap, _ := ref.Get(ctx)
	n, _ := snap.DataAt("n")
	if n.(int64) != workers {
		t.Fatalf("counter = %d, want %d", n, workers)
	}
}

func TestTransactionFnErrorAborts(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	ref := c.Collection("c").Doc("x")
	boom := errors.New("boom")
	err := c.RunTransaction(ctx, func(tx *Transaction) error {
		tx.Set(ref, map[string]any{"v": 1})
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if snap, _ := ref.Get(ctx); snap.Exists() {
		t.Fatal("aborted transaction wrote")
	}
}

func TestTransactionReadMissingThenCreate(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	ref := c.Collection("c").Doc("fresh")
	err := c.RunTransaction(ctx, func(tx *Transaction) error {
		snap, err := tx.Get(ref)
		if err != nil {
			return err
		}
		if snap.Exists() {
			return errors.New("should be absent")
		}
		return tx.Create(ref, map[string]any{"v": 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := ref.Get(ctx); !snap.Exists() {
		t.Fatal("create lost")
	}
}

func TestWriteBatch(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	b := c.Batch()
	for i := 0; i < 5; i++ {
		b.Set(c.Collection("c").Doc(fmt.Sprint(i)), map[string]any{"i": i})
	}
	b.Delete(c.Collection("c").Doc("0"))
	if err := b.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	docs, err := c.Collection("c").GetAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 4 {
		t.Fatalf("batch result = %d docs", len(docs))
	}
	// Empty batch is a no-op.
	if err := c.Batch().Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// Bad value type fails the batch.
	if err := c.Batch().Set(c.Collection("c").Doc("x"), map[string]any{"ch": make(chan int)}).Commit(ctx); err == nil {
		t.Fatal("bad value accepted")
	}
}

func TestSnapshotsListener(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	c.Collection("scores").Doc("a").Set(ctx, map[string]any{"v": 1})

	it, err := c.Collection("scores").Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Stop()
	snap, err := it.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Docs) != 1 || len(snap.Changes) != 1 || snap.Changes[0].Kind != DocumentAdded {
		t.Fatalf("initial = %+v", snap)
	}
	c.Collection("scores").Doc("b").Set(ctx, map[string]any{"v": 2})
	snap, err = it.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Docs) != 2 || snap.Changes[0].Kind != DocumentAdded {
		t.Fatalf("after insert = %+v", snap)
	}
	c.Collection("scores").Doc("a").Delete(ctx)
	snap, err = it.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Docs) != 1 || snap.Changes[0].Kind != DocumentRemoved {
		t.Fatalf("after delete = %+v", snap)
	}
}

func TestDocumentSnapshots(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	ref := c.Collection("scores").Doc("game")
	ref.Set(ctx, map[string]any{"home": 0})
	// A sibling doc must not leak into the single-doc listener.
	c.Collection("scores").Doc("other").Set(ctx, map[string]any{"x": 1})

	it, err := ref.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Stop()
	snap, err := it.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Docs) != 1 || snap.Docs[0].Ref.ID() != "game" {
		t.Fatalf("initial = %+v", snap.Docs)
	}
	ref.Set(ctx, map[string]any{"home": 3})
	snap, err = it.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := snap.Docs[0].DataAt("home")
	if v.(int64) != 3 {
		t.Fatalf("update = %+v", snap.Docs[0].Data())
	}
}

func TestUserClientRespectsRules(t *testing.T) {
	region := core.NewRegion(core.Config{})
	defer region.Close()
	region.CreateDatabase("app")
	if err := region.SetRules("app", `
match /notes/{id} {
  allow read, write: if request.auth.uid == "alice";
}
`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	alice := NewUserClient(region, "app", &rules.Auth{UID: "alice"})
	bob := NewUserClient(region, "app", &rules.Auth{UID: "bob"})
	if err := alice.Collection("notes").Doc("1").Set(ctx, map[string]any{"t": "hi"}); err != nil {
		t.Fatalf("alice write = %v", err)
	}
	if err := bob.Collection("notes").Doc("2").Set(ctx, map[string]any{"t": "no"}); !errors.Is(err, rules.ErrDenied) {
		t.Fatalf("bob write = %v", err)
	}
	if _, err := bob.Collection("notes").Doc("1").Get(ctx); !errors.Is(err, rules.ErrDenied) {
		t.Fatalf("bob read = %v", err)
	}
}

func TestQueryCount(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		city := []string{"SF", "NY"}[i%2]
		if err := c.Collection("r").Doc(fmt.Sprintf("d%02d", i)).Set(ctx, map[string]any{"city": city, "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		q    Query
		want int64
	}{
		{"all", c.Collection("r").Query(), 25},
		{"SF", c.Collection("r").Where("city", "==", "SF"), 13},
		{"n>=20", c.Collection("r").Where("n", ">=", 20), 5},
		{"empty", c.Collection("empty").Query(), 0},
	} {
		res, err := tc.q.NewAggregationQuery().WithCount("n").Get(ctx)
		if err != nil || res["n"] != tc.want {
			t.Fatalf("count %s = %v, %v; want %d", tc.name, res["n"], err, tc.want)
		}
	}
}
