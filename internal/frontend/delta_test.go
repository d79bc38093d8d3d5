package frontend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/index"
	"firestore/internal/query"
	"firestore/internal/rtcache"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// sortedDocs is the reference for a target's ordered slice: its result
// set sorted in query order.
func sortedDocs(q *query.Query, m map[string]*doc.Document) []*doc.Document {
	out := make([]*doc.Document, 0, len(m))
	for _, d := range m {
		out = append(out, d)
	}
	slices.SortFunc(out, q.Compare)
	return out
}

// checkEventOrder fails unless ev lists Added and Modified in query order
// and Removed in name order.
func checkEventOrder(t *testing.T, q *query.Query, ev SnapshotEvent) {
	t.Helper()
	if !ev.Initial && (!slices.IsSortedFunc(ev.Added, q.Compare) || !slices.IsSortedFunc(ev.Modified, q.Compare)) {
		t.Fatalf("event lists documents out of query order: %+v", ev)
	}
	if !slices.IsSortedFunc(ev.Removed, doc.Name.Compare) {
		t.Fatalf("event lists removals out of name order: %+v", ev)
	}
}

// TestOrderedTargetMatchesReference drives limit and unlimited targets
// with random sets, order-changing updates, field-only modifies and
// deletes, several to a commit. Whenever the connection is idle, each
// target's ordered slice is its result map sorted; and the view a client
// folds from the events equals the query's result at each event's TS.
func TestOrderedTargetMatchesReference(t *testing.T) {
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	coll := doc.MustCollection("/scores")
	queries := []*query.Query{
		{Collection: coll, Orders: []query.Order{{Path: "rating", Dir: index.Descending}}},
		{Collection: coll, Orders: []query.Order{{Path: "rating", Dir: index.Ascending}}, Limit: 4},
		{Collection: coll, Predicates: []query.Predicate{{Path: "rating", Op: query.Ge, Value: doc.Int(4)}},
			Orders: []query.Order{{Path: "rating", Dir: index.Descending}}, Limit: 3},
		{Collection: coll},
	}
	targets := map[int64]*query.Query{}
	views := map[int64]map[string]*doc.Document{}
	for _, q := range queries {
		id, err := conn.Listen(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		targets[id], views[id] = q, map[string]*doc.Document{}
	}
	checkOrdered := func(step int) {
		t.Helper()
		conn.mu.Lock()
		defer conn.mu.Unlock()
		for id, rq := range conn.targets {
			if want := sortedDocs(rq.q, rq.results); !slices.Equal(rq.ordered, want) {
				t.Fatalf("step %d, target %d: ordered %s, sorted results %s", step, id, names(rq.ordered), names(want))
			}
		}
	}
	atTS := func(q *query.Query, ts truetime.Timestamp) []*doc.Document {
		t.Helper()
		res, _, err := e.b.RunQuery(context.Background(), e.dbID, priv, q, nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Docs
	}
	consume := func(ev SnapshotEvent) {
		t.Helper()
		q := targets[ev.TargetID]
		checkEventOrder(t, q, ev)
		fold(views[ev.TargetID], ev)
		if want := atTS(q, ev.TS); !sameDocs(views[ev.TargetID], want) {
			t.Fatalf("target %d at %d: view %v, query returns %s", ev.TargetID, ev.TS, views[ev.TargetID], names(want))
		}
	}

	rng := rand.New(rand.NewSource(55))
	ratings := map[int]int64{} // the rating each document holds, if any
	var last truetime.Timestamp
	for step := 0; step < 120; step++ {
		var ops []backend.WriteOp
		for _, i := range rng.Perm(10)[:1+rng.Intn(3)] {
			name := doc.MustName(fmt.Sprintf("/scores/d%d", i))
			fields := map[string]doc.Value{"note": doc.Int(int64(step))}
			switch k := rng.Intn(10); {
			case k < 5: // a set that may move the document
				ratings[i] = int64(rng.Intn(8))
				fields["rating"] = doc.Int(ratings[i])
			case k < 7: // a modify that keeps its place
				if r, ok := ratings[i]; ok {
					fields["rating"] = doc.Int(r)
				}
			case k < 8: // leaves every ordered target
				delete(ratings, i)
			default:
				delete(ratings, i)
				ops = append(ops, backend.WriteOp{Kind: backend.OpDelete, Name: name})
				continue
			}
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: name, Fields: fields})
		}
		ts, err := e.b.Commit(context.Background(), e.dbID, priv, ops)
		if err != nil {
			t.Fatal(err)
		}
		last = ts
		checkOrdered(step)
		for len(conn.Events()) > 0 {
			consume(<-conn.Events())
		}
	}
	// Every view converges on the query's result after the last commit.
	deadline := time.After(3 * time.Second)
	for id, q := range targets {
		for !sameDocs(views[id], atTS(q, last)) {
			select {
			case ev := <-conn.Events():
				consume(ev)
			case <-deadline:
				t.Fatalf("target %d view %v, want %s", id, views[id], names(atTS(q, last)))
			}
		}
	}
	checkOrdered(-1)
}

func sameDocs(view map[string]*doc.Document, want []*doc.Document) bool {
	if len(view) != len(want) {
		return false
	}
	for _, d := range want {
		if v, ok := view[d.Name.String()]; !ok || !v.Equal(d) {
			return false
		}
	}
	return true
}

// TestDeltaAllocs: one matched insert that evicts a member of a warm
// limit-20 target allocates the event's Added and Removed and nothing
// else. Before targets kept their order the same delivery cost 5
// allocations: those two plus the re-sorted result, a net-change map and
// the event on the heap.
func TestDeltaAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	e := newEnvWithHeartbeat(t, time.Hour)
	for i := 0; i < 20; i++ {
		e.set(t, fmt.Sprintf("/msgs/m%02d", i), map[string]doc.Value{"ts": doc.Int(int64(i))})
	}
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{Collection: doc.MustCollection("/msgs"), Orders: []query.Order{{Path: "ts", Dir: index.Descending}}, Limit: 20}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	nextEvent(t, conn, target)
	sub, rid := subscription(conn, target)
	conn.mu.Lock()
	ts := conn.targets[target].maxCommitVersion
	conn.mu.Unlock()
	const runs = 100
	docs := make([]*doc.Document, runs+2)
	for i := range docs {
		docs[i] = doc.New(doc.MustName(fmt.Sprintf("/msgs/w%03d", i)), map[string]doc.Value{"ts": doc.Int(int64(100 + i))})
	}
	i := 0
	insert := func() {
		ts++
		d := docs[i]
		i++
		conn.OnUpdate(rid, sub, rtcache.Update{TS: ts, Name: d.Name, New: d, Matches: true})
		conn.OnWatermark(rid, sub, ts)
		if ev := <-conn.Events(); len(ev.Added) != 1 || len(ev.Removed) != 1 {
			t.Fatalf("delta = %+v, want one added and one evicted", ev)
		}
	}
	insert()
	got := testing.AllocsPerRun(runs, insert)
	t.Logf("an evicting delta: %.1f allocations", got)
	if got > 2 {
		t.Fatalf("a delta that evicts allocates %.1f times, want <= 2", got)
	}
}

// TestListenRefusesOffset: the matcher cannot know which documents an
// offset skips once the result changes, so a listener with one is refused
// rather than served a wrong view.
func TestListenRefusesOffset(t *testing.T) {
	e := newEnv(t)
	for i, id := range []string{"a", "b", "c", "d", "e"} {
		e.set(t, "/ratings/"+id, rating(int64(10+i)))
	}
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	_, err := conn.Listen(context.Background(), &query.Query{
		Collection: doc.MustCollection("/ratings"),
		Orders:     []query.Order{{Path: "rating", Dir: index.Ascending}},
		Offset:     2,
	})
	if status.CodeOf(err) != status.InvalidArgument {
		t.Fatalf("Listen with an offset = %v, want InvalidArgument", err)
	}
	if stats := e.f.ConnStats(); len(stats) != 1 || stats[0].Targets != 0 {
		t.Fatalf("refused listen left %+v", stats)
	}
}

// TestProjectedListenerEmitsProjection: every document a projected
// listener receives is projected, while eviction still orders by the
// field the projection drops; the folded view is the query's result.
func TestProjectedListenerEmitsProjection(t *testing.T) {
	e := newEnv(t)
	person := func(name string, r int64) map[string]doc.Value {
		return map[string]doc.Value{"name": doc.String(name), "rating": doc.Int(r), "secret": doc.String("x")}
	}
	e.set(t, "/people/a", person("ann", 5))
	e.set(t, "/people/b", person("bob", 3))
	e.set(t, "/people/c", person("cy", 1))
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	q := &query.Query{
		Collection: doc.MustCollection("/people"),
		Orders:     []query.Order{{Path: "rating", Dir: index.Descending}},
		Limit:      2,
		Projection: []doc.FieldPath{"name"},
	}
	target, err := conn.Listen(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	view := map[string]*doc.Document{}
	check := func(ev SnapshotEvent) {
		t.Helper()
		for _, d := range slices.Concat(ev.Added, ev.Modified) {
			if _, ok := d.Fields["name"]; len(d.Fields) != 1 || !ok {
				t.Fatalf("event carries %v, want only name", d.Fields)
			}
		}
		fold(view, ev)
		res, _, err := e.b.RunQuery(context.Background(), e.dbID, priv, q, nil, ev.TS)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDocs(view, res.Docs) {
			t.Fatalf("view %v at %d, query returns %s", view, ev.TS, names(res.Docs))
		}
	}
	check(nextEvent(t, conn, target))
	e.set(t, "/people/d", person("dee", 4)) // evicts bob
	ev := nextEvent(t, conn, target)
	if len(ev.Added) != 1 || ev.Added[0].Name.ID() != "d" || len(ev.Removed) != 1 || ev.Removed[0].ID() != "b" {
		t.Fatalf("evicting insert = %+v", ev)
	}
	check(ev)
	e.set(t, "/people/e", person("eve", 9)) // evicts dee
	check(nextEvent(t, conn, target))
	e.set(t, "/people/a", person("ann2", 6)) // a member modified in place
	check(nextEvent(t, conn, target))
}

// TestSnapshotChangesInQueryOrder: one commit of eight documents reaches
// an unlimited listener as one delta whose Added is in query order, every
// time, not in the order a map happened to iterate.
func TestSnapshotChangesInQueryOrder(t *testing.T) {
	e := newEnvWithHeartbeat(t, time.Hour)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	for rep := 0; rep < 50; rep++ {
		coll := fmt.Sprintf("/rep%d", rep)
		q := &query.Query{Collection: doc.MustCollection(coll), Orders: []query.Order{{Path: "rank", Dir: index.Ascending}}}
		target, err := conn.Listen(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		nextEvent(t, conn, target)
		var ops []backend.WriteOp
		for i := 0; i < 8; i++ {
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("%s/d%d", coll, i)),
				Fields: map[string]doc.Value{"rank": doc.Int(int64((i * 5) % 8))}})
		}
		if _, err := e.b.Commit(context.Background(), e.dbID, priv, ops); err != nil {
			t.Fatal(err)
		}
		ev := nextEvent(t, conn, target)
		if len(ev.Added) != 8 || !slices.IsSortedFunc(ev.Added, q.Compare) {
			t.Fatalf("rep %d: Added %s, want all eight in query order", rep, names(ev.Added))
		}
		conn.StopListening(target)
	}
}

// foldAt applies one event to a client's ordered view of its target
// without comparing documents: an Initial snapshot replaces the view; a
// delta drops every document it names and inserts each listed one at its
// position, lowest position first.
func foldAt(t *testing.T, view []*doc.Document, ev SnapshotEvent) []*doc.Document {
	t.Helper()
	if ev.Initial {
		return slices.Clone(ev.Added)
	}
	listed := slices.Concat(ev.Added, ev.Modified)
	if len(ev.At) != len(listed) {
		t.Fatalf("delta lists %d documents and %d positions", len(listed), len(ev.At))
	}
	gone := map[doc.Name]bool{}
	for _, n := range ev.Removed {
		gone[n] = true
	}
	type placed struct {
		at int32
		d  *doc.Document
	}
	var put []placed
	for i, d := range listed {
		gone[d.Name] = true
		put = append(put, placed{ev.At[i], d})
	}
	view = slices.DeleteFunc(slices.Clone(view), func(d *doc.Document) bool { return gone[d.Name] })
	slices.SortFunc(put, func(a, b placed) int { return int(a.at - b.at) })
	for _, p := range put {
		if int(p.at) > len(view) {
			t.Fatalf("position %d past a view of %d: %+v", p.at, len(view), ev)
		}
		view = slices.Insert(view, int(p.at), p.d)
	}
	return view
}

// TestPositionsFoldToQueryResult: a client that keeps each target as a
// slice, folded by foldAt, holds after every event exactly what the query
// returns at the event's timestamp, in the query's order and field for
// field: over TestOrderedTargetMatchesReference's query shapes and a
// projected limit target, with random sets, order-changing updates,
// field-only modifies and deletes, several to a commit.
func TestPositionsFoldToQueryResult(t *testing.T) {
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	coll := doc.MustCollection("/scores")
	queries := []*query.Query{
		{Collection: coll, Orders: []query.Order{{Path: "rating", Dir: index.Descending}}},
		{Collection: coll, Orders: []query.Order{{Path: "rating", Dir: index.Ascending}}, Limit: 4},
		{Collection: coll, Predicates: []query.Predicate{{Path: "rating", Op: query.Ge, Value: doc.Int(4)}},
			Orders: []query.Order{{Path: "rating", Dir: index.Descending}}, Limit: 3},
		{Collection: coll},
		{Collection: coll, Orders: []query.Order{{Path: "rating", Dir: index.Ascending}}, Limit: 3, Projection: []doc.FieldPath{"note"}},
	}
	targets := map[int64]*query.Query{}
	views := map[int64][]*doc.Document{}
	for _, q := range queries {
		id, err := conn.Listen(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		targets[id] = q
	}
	atTS := func(q *query.Query, ts truetime.Timestamp) []*doc.Document {
		t.Helper()
		res, _, err := e.b.RunQuery(context.Background(), e.dbID, priv, q, nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Docs
	}
	same := func(id int64, ts truetime.Timestamp) bool {
		return slices.EqualFunc(views[id], atTS(targets[id], ts), (*doc.Document).Equal)
	}
	consume := func(ev SnapshotEvent) {
		t.Helper()
		views[ev.TargetID] = foldAt(t, views[ev.TargetID], ev)
		if !same(ev.TargetID, ev.TS) {
			t.Fatalf("target %d at %d: view %s, query returns %s", ev.TargetID, ev.TS, names(views[ev.TargetID]), names(atTS(targets[ev.TargetID], ev.TS)))
		}
	}

	rng := rand.New(rand.NewSource(56))
	var last truetime.Timestamp
	for step := 0; step < 120; step++ {
		var ops []backend.WriteOp
		for _, i := range rng.Perm(10)[:1+rng.Intn(3)] {
			name := doc.MustName(fmt.Sprintf("/scores/d%d", i))
			fields := map[string]doc.Value{"note": doc.Int(int64(step))}
			switch k := rng.Intn(10); {
			case k < 6: // a set that may move the document
				fields["rating"] = doc.Int(int64(rng.Intn(8)))
			case k < 8: // a set without the ordered field
			default:
				ops = append(ops, backend.WriteOp{Kind: backend.OpDelete, Name: name})
				continue
			}
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: name, Fields: fields})
		}
		ts, err := e.b.Commit(context.Background(), e.dbID, priv, ops)
		if err != nil {
			t.Fatal(err)
		}
		last = ts
		for len(conn.Events()) > 0 {
			consume(<-conn.Events())
		}
	}
	deadline := time.After(3 * time.Second)
	for id := range targets {
		for !same(id, last) {
			select {
			case ev := <-conn.Events():
				consume(ev)
			case <-deadline:
				t.Fatalf("target %d view %s, want %s", id, names(views[id]), names(atTS(targets[id], last)))
			}
		}
	}
}

// TestPositionsFoldOverMixedValues: TestPositionsFoldToQueryResult's
// fold, over writes whose ordered field takes values of every kind, maps
// (nested and empty), NaN, -0 and an int beside its double among them.
// After every event each folded view equals the query at the event's
// timestamp, for ordered, limited, filtered and projected targets alike:
// the index, the Query Matcher and the target's order read one value at
// a path.
func TestPositionsFoldOverMixedValues(t *testing.T) {
	e := newEnv(t)
	conn := e.f.NewConn(e.dbID, priv)
	defer conn.Close()
	coll := doc.MustCollection("/mixed")
	x := func(v doc.Value) doc.Value { return doc.Map(map[string]doc.Value{"x": v}) }
	values := []doc.Value{doc.Null(), doc.Bool(false), doc.Bool(true), doc.Int(1), doc.Double(1), doc.Double(math.NaN()),
		doc.Double(math.Copysign(0, -1)), doc.Int(0), doc.Timestamp(time.Unix(5, 0)), doc.String(""), doc.String("s"),
		doc.Bytes([]byte("b")), doc.Reference("/mixed/d1"), doc.Geo(1, 2), doc.Array(), doc.Array(doc.Int(1), x(doc.Int(1))),
		doc.Map(nil), x(doc.Int(1)), x(doc.Int(2)), x(x(doc.Int(1))), doc.Map(map[string]doc.Value{"x": doc.Int(1), "y": doc.Null()})}
	asc, desc := []query.Order{{Path: "v", Dir: index.Ascending}}, []query.Order{{Path: "v", Dir: index.Descending}}
	queries := []*query.Query{
		{Collection: coll, Orders: asc},
		{Collection: coll, Orders: desc, Limit: 4},
		{Collection: coll, Predicates: []query.Predicate{{Path: "v", Op: query.Ge, Value: x(doc.Int(1))}}, Orders: asc, Limit: 3},
		{Collection: coll, Predicates: []query.Predicate{{Path: "v", Op: query.Eq, Value: x(doc.Int(1))}}},
		{Collection: coll, Predicates: []query.Predicate{{Path: "v.x", Op: query.Eq, Value: doc.Int(1)}}},
		{Collection: coll, Predicates: []query.Predicate{{Path: "v", Op: query.ArrayContains, Value: x(doc.Int(1))}}},
		{Collection: coll, Orders: desc, Limit: 3, Projection: []doc.FieldPath{"note"}},
	}
	targets := map[int64]*query.Query{}
	views := map[int64][]*doc.Document{}
	for _, q := range queries {
		id, err := conn.Listen(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		targets[id] = q
	}
	atTS := func(q *query.Query, ts truetime.Timestamp) []*doc.Document {
		t.Helper()
		res, _, err := e.b.RunQuery(context.Background(), e.dbID, priv, q, nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Docs
	}
	same := func(id int64, ts truetime.Timestamp) bool {
		return slices.EqualFunc(views[id], atTS(targets[id], ts), (*doc.Document).Equal)
	}
	consume := func(ev SnapshotEvent) {
		t.Helper()
		views[ev.TargetID] = foldAt(t, views[ev.TargetID], ev)
		if !same(ev.TargetID, ev.TS) {
			t.Fatalf("%s at %d: view %s, query returns %s", targets[ev.TargetID], ev.TS, names(views[ev.TargetID]), names(atTS(targets[ev.TargetID], ev.TS)))
		}
	}

	rng := rand.New(rand.NewSource(64))
	var last truetime.Timestamp
	for step := 0; step < 150; step++ {
		var ops []backend.WriteOp
		for _, i := range rng.Perm(10)[:1+rng.Intn(3)] {
			name := doc.MustName(fmt.Sprintf("/mixed/d%d", i))
			fields := map[string]doc.Value{"note": doc.Int(int64(step))}
			switch k := rng.Intn(10); {
			case k < 7:
				fields["v"] = values[rng.Intn(len(values))]
			case k < 8: // a set without the ordered field
			default:
				ops = append(ops, backend.WriteOp{Kind: backend.OpDelete, Name: name})
				continue
			}
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: name, Fields: fields})
		}
		ts, err := e.b.Commit(context.Background(), e.dbID, priv, ops)
		if err != nil {
			t.Fatal(err)
		}
		last = ts
		for len(conn.Events()) > 0 {
			consume(<-conn.Events())
		}
	}
	deadline := time.After(3 * time.Second)
	for id := range targets {
		for !same(id, last) {
			select {
			case ev := <-conn.Events():
				consume(ev)
			case <-deadline:
				t.Fatalf("%s: view %s, want %s", targets[id], names(views[id]), names(atTS(targets[id], last)))
			}
		}
	}
}
