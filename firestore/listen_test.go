package firestore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/obs"
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
// deltas and checks it, after each, against a from-scratch evaluation of
// the same documents.
func TestListenerViewStaysOrdered(t *testing.T) {
	c := newClient(t)
	q := c.Collection("items").OrderBy("rank", Desc).Limit(500)
	iq, err := q.build()
	if err != nil {
		t.Fatal(err)
	}
	it := &QuerySnapshotIterator{c: c, q: iq, byPath: map[string]*DocumentSnapshot{}}
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
	check := func(step int, snap *QuerySnapshot) {
		t.Helper()
		var all []*DocumentSnapshot
		for _, d := range model {
			all = append(all, resultSnapshot(c, d, 0))
		}
		want, err := q.Evaluate(all)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := refs(snap.Docs), refs(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: view\n%v\nfrom scratch\n%v", step, got, want)
		}
	}
	initial := frontend.SnapshotEvent{Initial: true}
	for id := 0; id < 500; id++ {
		initial.Added = append(initial.Added, fresh(id))
	}
	rng.Shuffle(len(initial.Added), func(i, j int) { initial.Added[i], initial.Added[j] = initial.Added[j], initial.Added[i] })
	check(0, it.apply(initial))
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
		if snap := it.apply(ev); snap != nil {
			check(step, snap)
		}
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
