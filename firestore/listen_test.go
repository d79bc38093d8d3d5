package firestore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/obs"
	"firestore/internal/status"
)

// TestListenersShareOneConnection: a client's listeners multiplex on one
// frontend connection, and one whose consumer never calls Next neither
// delays its sibling nor loses what it was sent.
func TestListenersShareOneConnection(t *testing.T) {
	c := newClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	idle, err := c.Collection("scores").Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Stop()
	live, err := c.Collection("scores").Where("v", ">=", 0).Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Stop()
	if stats := c.region.Frontend.ConnStats(); len(stats) != 1 || stats[0].Targets != 2 {
		t.Fatalf("connections = %+v, want one with two targets", stats)
	}
	if snap, err := live.Next(ctx); err != nil || len(snap.Docs) != 0 {
		t.Fatalf("initial = %+v, %v", snap, err)
	}
	// More writes than the connection buffers (1024 events): were the
	// idle iterator's share left on the connection, it would fill, the
	// frontend would start dropping, and live would stall behind it.
	const writes = 1200
	for i := 0; i < writes; i++ {
		if err := c.Collection("scores").Doc(fmt.Sprint(i)).Set(ctx, map[string]any{"v": i}); err != nil {
			t.Fatal(err)
		}
		snap, err := live.Next(ctx)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if len(snap.Docs) != i+1 {
			t.Fatalf("after write %d live shows %d docs", i, len(snap.Docs))
		}
	}
	// The idle iterator still has every change, in order.
	var last *QuerySnapshot
	for n := 0; n < writes; {
		if last, err = idle.Next(ctx); err != nil {
			t.Fatal(err)
		}
		n += len(last.Changes)
	}
	if len(last.Docs) != writes {
		t.Fatalf("idle iterator ends at %d docs, want %d", len(last.Docs), writes)
	}
	if dropped := c.region.Obs.Counter("frontend.events_dropped", obs.DB("app")); dropped.Value() != 0 {
		t.Fatalf("frontend dropped %d events", dropped.Value())
	}

	// The connection goes with its last listener, and a later listener
	// gets a new one.
	idle.Stop()
	live.Stop()
	if _, err := live.Next(ctx); err == nil {
		t.Fatal("Next after Stop succeeded")
	}
	if stats := c.region.Frontend.ConnStats(); len(stats) != 0 {
		t.Fatalf("connections after Stop = %+v", stats)
	}
	again, err := c.Collection("scores").Where("v", ">=", writes-5).Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Stop()
	if snap, err := again.Next(ctx); err != nil || len(snap.Docs) != 5 {
		t.Fatalf("new listener = %d docs, %v", len(snap.Docs), err)
	}
}

// TestListenerViewStaysOrdered drives an iterator's view with random
// deltas, each listing its documents in map order and placing them with
// positions taken from a from-scratch evaluation of the same documents,
// and checks the view against that evaluation after each.
func TestListenerViewStaysOrdered(t *testing.T) {
	c := newClient(t)
	q := c.Collection("items").OrderBy("rank", Desc).Limit(500)
	it := &QuerySnapshotIterator{c: c}
	rng := rand.New(rand.NewSource(28))
	model := map[string]*doc.Document{}
	fresh := func(id int) *doc.Document {
		// Few distinct ranks: most positions are decided by the name
		// tie-break.
		d := &doc.Document{
			Name:   doc.MustName(fmt.Sprintf("/items/%04d", id)),
			Fields: map[string]doc.Value{"rank": doc.Int(int64(rng.Intn(40)))},
		}
		model[d.Name.String()] = d
		return d
	}
	// evaluate is the model's result in query order, as the server
	// orders it.
	evaluate := func() []*DocumentSnapshot {
		t.Helper()
		var all []*DocumentSnapshot
		for _, d := range model {
			all = append(all, resultSnapshot(c, d, 0))
		}
		want, err := q.Evaluate(all)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	check := func(step int, snap *QuerySnapshot, want []*DocumentSnapshot) {
		t.Helper()
		if got, want := refs(snap.Docs), refs(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: view\n%v\nfrom scratch\n%v", step, got, want)
		}
	}
	for id := 0; id < 500; id++ {
		fresh(id)
	}
	want := evaluate()
	initial := frontend.SnapshotEvent{Initial: true}
	for _, s := range want {
		initial.Added = append(initial.Added, model[s.Ref.Path()])
	}
	check(0, it.apply(initial), want)
	next := 500
	for step := 1; step <= 200; step++ {
		var ev frontend.SnapshotEvent
		for n := 1 + rng.Intn(4); n > 0; n-- {
			var victim *doc.Document
			for _, victim = range model { // map order: any member
				break
			}
			switch {
			case inEvent(ev, victim.Name):
			case rng.Intn(2) == 0:
				id := 0
				fmt.Sscanf(victim.Name.ID(), "%d", &id)
				ev.Modified = append(ev.Modified, fresh(id))
			default:
				// The result set is full: one in, one out, as the
				// frontend's limit handling reports it.
				delete(model, victim.Name.String())
				ev.Removed = append(ev.Removed, victim.Name)
				ev.Added = append(ev.Added, fresh(next))
				next++
			}
		}
		want := evaluate()
		for _, d := range slices.Concat(ev.Added, ev.Modified) {
			ev.At = append(ev.At, int32(slices.IndexFunc(want, func(s *DocumentSnapshot) bool { return s.Ref.name == d.Name })))
		}
		check(step, it.apply(ev), want)
	}
}

// TestRebuildThatChangesNothingIsSilent: the server rebuilds a query with
// an Initial snapshot after a reset or a dropped delta. The application
// sees the first Initial, and a later one only if it changed something
// that the deltas before it had not.
func TestRebuildThatChangesNothingIsSilent(t *testing.T) {
	c := newClient(t)
	it := &QuerySnapshotIterator{c: c}
	if snap := it.apply(frontend.SnapshotEvent{Initial: true, TS: 1}); snap == nil || len(snap.Docs) != 0 {
		t.Fatalf("first, empty Initial = %+v, want an empty snapshot", snap)
	}
	a := &doc.Document{Name: doc.MustName("/items/a"), UpdateTime: 2}
	b := &doc.Document{Name: doc.MustName("/items/b"), UpdateTime: 2}
	if snap := it.apply(frontend.SnapshotEvent{Initial: true, TS: 3, Added: []*doc.Document{a, b}}); snap == nil || len(snap.Changes) != 2 {
		t.Fatalf("Initial adding two = %+v", snap)
	}
	d := &doc.Document{Name: doc.MustName("/items/d"), UpdateTime: 4}
	snap := it.apply(frontend.SnapshotEvent{TS: 4, Added: []*doc.Document{d}, At: []int32{1}})
	if snap == nil || len(snap.Changes) != 1 || !reflect.DeepEqual(refs(snap.Docs), []string{"/items/a", "/items/d", "/items/b"}) {
		t.Fatalf("a delta putting d at 1 = %+v", snap)
	}
	if snap := it.apply(frontend.SnapshotEvent{Initial: true, TS: 5, Added: []*doc.Document{a, d, b}}); snap != nil {
		t.Fatalf("a rebuild that changed nothing raised %+v", snap)
	}
	snap = it.apply(frontend.SnapshotEvent{Initial: true, TS: 6, Added: []*doc.Document{d, b}})
	if snap == nil || len(snap.Changes) != 1 || snap.Changes[0].Kind != DocumentRemoved || !reflect.DeepEqual(refs(snap.Docs), []string{"/items/d", "/items/b"}) {
		t.Fatalf("a rebuild without a = %+v, want a removed", snap)
	}
}

// TestListenerDocsMatchGetAll: a listener's Docs equal GetAll of the
// same query after every event, in order and field for field, where a
// projection drops the field the query orders by: after the initial
// result, an insert into the middle and updates that move a document,
// with and without a limit that evicts.
func TestListenerDocsMatchGetAll(t *testing.T) {
	c := newClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type rated struct {
		id     string
		rating int
	}
	for _, tc := range []struct {
		query  func(*CollectionRef) Query
		writes []rated // each changes the result
	}{
		{func(cr *CollectionRef) Query { return cr.OrderBy("rating", Asc).Select("name") },
			[]rated{{"d", 9}, {"a", 1}, {"b", 20}}},
		{func(cr *CollectionRef) Query { return cr.OrderBy("rating", Desc).Limit(3).Select("name") },
			[]rated{{"d", 9}, {"b", 11}, {"c", 10}, {"a", 1}}},
	} {
		notes := c.Collection(fmt.Sprint("notes", len(tc.writes)))
		set := func(w rated) {
			t.Helper()
			if err := notes.Doc(w.id).Set(ctx, map[string]any{"name": w.id, "rating": w.rating}); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range []rated{{"a", 10}, {"b", 9}, {"c", 8}} {
			set(w)
		}
		q := tc.query(notes)
		it, err := q.Snapshots(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step <= len(tc.writes); step++ {
			if step > 0 {
				set(tc.writes[step-1])
			}
			snap, err := it.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := q.GetAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refs(snap.Docs), refs(want)) {
				t.Fatalf("step %d: listener %v, GetAll %v", step, refs(snap.Docs), refs(want))
			}
			for i := range want {
				if !reflect.DeepEqual(snap.Docs[i].Data(), want[i].Data()) {
					t.Fatalf("step %d: listener has %v, GetAll %v", step, snap.Docs[i].Data(), want[i].Data())
				}
			}
		}
		it.Stop()
	}
}

// TestMapValuesAgree: a map is one orderable value wherever a query is
// answered. Under OrderBy("a") over n1 {a: 1} and m1 {a: {x: 1}}, and
// then m2 {a: {x: 2}}, the listener's Docs, GetAll and Evaluate over the
// collection agree after every event; an equality on a whole map finds
// its document on the server and in Evaluate alike.
func TestMapValuesAgree(t *testing.T) {
	c := newClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coll := c.Collection("mixed")
	set := func(id string, v any) {
		t.Helper()
		if err := coll.Doc(id).Set(ctx, map[string]any{"a": v}); err != nil {
			t.Fatal(err)
		}
	}
	paths := func(ids ...string) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = coll.Doc(id).Path()
		}
		return out
	}
	answers := func(q Query) (server, local []string) {
		t.Helper()
		got, err := q.GetAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		all, err := coll.GetAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		eval, err := q.Evaluate(all)
		if err != nil {
			t.Fatal(err)
		}
		return refs(got), refs(eval)
	}
	set("n1", 1)
	set("m1", map[string]any{"x": 1})
	q := coll.OrderBy("a", Asc)
	it, err := q.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Stop()
	for step, want := range [][]string{paths("n1", "m1"), paths("n1", "m1", "m2")} {
		if step > 0 {
			set("m2", map[string]any{"x": 2})
		}
		snap, err := it.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		server, local := answers(q)
		if view := refs(snap.Docs); !slices.Equal(view, want) || !slices.Equal(server, want) || !slices.Equal(local, want) {
			t.Fatalf("step %d: listener %v, GetAll %v, Evaluate %v, want %v", step, view, server, local, want)
		}
	}
	server, local := answers(coll.Where("a", "==", map[string]any{"x": 1}))
	if want := paths("m1"); !slices.Equal(server, want) || !slices.Equal(local, want) {
		t.Fatalf("a == {x: 1}: GetAll %v, Evaluate %v, want %v", server, local, want)
	}
}

// TestNextEndsWithTheRebuildError: when the server cannot rebuild a query
// it ends the target with the error; Next returns it and the listener
// is stopped, its connection released with it.
func TestNextEndsWithTheRebuildError(t *testing.T) {
	c := newClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	it, err := c.Collection("items").Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	it.push(frontend.SnapshotEvent{TargetID: it.targetID, Err: status.New(status.Internal, "frontend", "rebuild failed")}, false)
	if _, err := it.Next(ctx); status.CodeOf(err) != status.Internal {
		t.Fatalf("Next after the error event = %v", err)
	}
	if _, err := it.Next(ctx); status.CodeOf(err) != status.FailedPrecondition {
		t.Fatalf("Next after that = %v, want stopped", err)
	}
	if stats := c.region.Frontend.ConnStats(); len(stats) != 0 {
		t.Fatalf("connections = %+v, want none", stats)
	}
}

func inEvent(ev frontend.SnapshotEvent, n doc.Name) bool {
	for _, ds := range [][]*doc.Document{ev.Added, ev.Modified} {
		for _, d := range ds {
			if d.Name.Compare(n) == 0 {
				return true
			}
		}
	}
	return false
}

func refs(docs []*DocumentSnapshot) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Ref.Path()
	}
	return out
}

// TestLocalSnapshots covers what an offline layer builds on: a snapshot
// of an unacknowledged write, its encoding, and evaluating a query over
// snapshots the way the service would.
func TestLocalSnapshots(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	var local []*DocumentSnapshot
	for i, city := range []string{"SF", "NY", "SF", "LA", "SF"} {
		data := map[string]any{"city": city, "n": i, "tags": []any{"a", int64(i)}, "at": time.Unix(int64(i), 0).UTC()}
		ref := c.Collection("r").Doc(fmt.Sprint("d", i))
		if err := ref.Set(ctx, data); err != nil {
			t.Fatal(err)
		}
		s, err := ref.LocalSnapshot(data)
		if err != nil || !s.Exists() {
			t.Fatalf("LocalSnapshot = %v, %v", s, err)
		}
		local = append(local, s)
	}
	gone, err := c.Doc("r/gone").LocalSnapshot(nil)
	if err != nil || gone.Exists() {
		t.Fatalf("pending delete = %v, %v", gone, err)
	}
	if _, err := c.Doc("not-a-document").LocalSnapshot(nil); err == nil {
		t.Fatal("bad path accepted")
	}
	if _, err := c.Doc("r/x").LocalSnapshot(map[string]any{"ch": make(chan int)}); err == nil {
		t.Fatal("bad value accepted")
	}

	// The encoding round-trips existence, path, fields and timestamps.
	stored, err := c.Doc("r/d1").Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DocumentSnapshot{stored, local[0], gone} {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.UnmarshalSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		if back.Exists() != s.Exists() || back.Ref.Path() != s.Ref.Path() || !reflect.DeepEqual(back.Data(), s.Data()) ||
			(s.Exists() && (!back.UpdateTime.Equal(s.UpdateTime) || !back.CreateTime.Equal(s.CreateTime))) {
			t.Fatalf("round trip of %s: %+v -> %+v", s.Ref.Path(), s, back)
		}
		for n := range blob {
			if _, err := c.UnmarshalSnapshot(blob[:n]); err == nil {
				t.Fatalf("%d of %d bytes decoded", n, len(blob))
			}
		}
		blob[len(blob)-1] = 2
		if _, err := c.UnmarshalSnapshot(blob); err == nil {
			t.Fatal("bad existence flag decoded")
		}
	}

	// Evaluate answers as the service does.
	for _, q := range []Query{
		c.Collection("r").Query(),
		c.Collection("r").Where("city", "==", "SF"),
		c.Collection("r").OrderBy("n", Desc),
		c.Collection("r").Where("n", ">", 0).Limit(2),
		c.Collection("r").OrderBy("city", Asc).Offset(1).Limit(3),
		c.Collection("r").Query().Offset(9),
		c.Collection("r").Query().Offset(-1),
		c.Collection("r").Where("tags", "array-contains", "a").Select("city"),
		c.Collection("elsewhere").Query(),
	} {
		want, err := q.GetAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Evaluate(append([]*DocumentSnapshot{gone}, local...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refs(got), refs(want)) {
			t.Fatalf("Evaluate = %v, service = %v", refs(got), refs(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Data(), want[i].Data()) {
				t.Fatalf("Evaluate %s = %v, service = %v", got[i].Ref.Path(), got[i].Data(), want[i].Data())
			}
		}
	}
	if _, err := c.Collection("r").Where("n", "~", 1).Evaluate(local); err == nil {
		t.Fatal("invalid query evaluated")
	}
}

// TestSnapshotsRefuseOffset: a listener with an offset would be shown a
// wrong view as soon as a write lands before the offset, so the server
// refuses it and Snapshots returns its error.
func TestSnapshotsRefuseOffset(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	for i, id := range []string{"a", "b", "c"} {
		if err := c.Collection("ratings").Doc(id).Set(ctx, map[string]any{"rating": 10 + i}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := c.Collection("ratings").OrderBy("rating", Asc).Offset(2).Snapshots(ctx)
	if status.CodeOf(err) != status.InvalidArgument {
		t.Fatalf("Snapshots with an offset = %v, %v; want InvalidArgument", it, err)
	}
}

// TestChangesFollowQueryOrder: a batch of eight inserts reaches the
// listener as one snapshot whose Changes list them in query order, every
// time.
func TestChangesFollowQueryOrder(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	for rep := 0; rep < 50; rep++ {
		coll := c.Collection(fmt.Sprintf("rep%d", rep))
		it, err := coll.OrderBy("rank", Asc).Snapshots(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(ctx); err != nil {
			t.Fatal(err)
		}
		b := c.Batch()
		for i := 0; i < 8; i++ {
			b.Set(coll.Doc(fmt.Sprintf("d%d", i)), map[string]any{"rank": (i * 5) % 8})
		}
		if err := b.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		snap, err := it.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var ranks []int64
		for _, ch := range snap.Changes {
			if ch.Kind != DocumentAdded {
				t.Fatalf("rep %d: change %+v, want only additions", rep, ch)
			}
			ranks = append(ranks, ch.Doc.document().Fields["rank"].IntVal())
		}
		if len(ranks) != 8 || !slices.IsSorted(ranks) {
			t.Fatalf("rep %d: Changes list ranks %v, want all eight in query order", rep, ranks)
		}
		it.Stop()
	}
}
