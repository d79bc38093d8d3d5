package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/query"
	"firestore/internal/triggers"
)

// TestCommitDoesNotAliasCallerFields: Commit builds one document per
// write and publishes it — to the Entities row, to the Real-time Cache,
// to the trigger payload — without a second copy, so the one copy it
// does take must be deep. The caller mutates its WriteOp.Fields (a
// []byte value and a nested map included) after Commit returns and
// nothing else is mutated; a strong read, an open listener's snapshot
// and a registered trigger's Change.New must all still show the
// committed values, and the published documents must carry the commit
// timestamp.
func TestCommitDoesNotAliasCallerFields(t *testing.T) {
	r := newRegion(t, Config{})
	r.CreateDatabase("app")
	ctx := context.Background()
	priv := backend.Principal{Privileged: true}
	name := doc.MustName("/notes/n1")

	changes := make(chan triggers.Change, 1)
	r.Triggers("app").OnWrite("notes", func(_ context.Context, ch triggers.Change) error {
		changes <- ch
		return nil
	})
	conn := r.NewConn("app", priv)
	defer conn.Close()
	if _, err := conn.Listen(ctx, &query.Query{Collection: doc.MustCollection("/notes")}); err != nil {
		t.Fatal(err)
	}
	<-conn.Events() // the initial, empty snapshot

	blob := []byte("committed")
	inner := map[string]doc.Value{"city": doc.String("SF")}
	tags := []doc.Value{doc.String("a"), doc.String("b")}
	fields := map[string]doc.Value{
		"blob":    doc.Bytes(blob),
		"address": doc.Map(inner),
		"tags":    doc.Array(tags...),
		"n":       doc.Int(1),
	}
	ts, err := r.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: name, Fields: fields}})
	if err != nil {
		t.Fatal(err)
	}

	// The caller reuses everything it passed in.
	copy(blob, "MUTATED!!")
	inner["city"] = doc.String("NYC")
	inner["zip"] = doc.Int(10001)
	tags[0] = doc.String("z")
	fields["n"] = doc.Int(2)
	delete(fields, "blob")

	check := func(what string, d *doc.Document) {
		t.Helper()
		if d == nil {
			t.Fatalf("%s: no document", what)
		}
		if got := d.Fields["blob"].BytesVal(); !bytes.Equal(got, []byte("committed")) {
			t.Errorf("%s: blob = %q", what, got)
		}
		if addr := d.Fields["address"].MapVal(); len(addr) != 1 || addr["city"].StringVal() != "SF" {
			t.Errorf("%s: address = %v", what, d.Fields["address"])
		}
		if got := d.Fields["tags"].ArrayVal(); len(got) != 2 || got[0].StringVal() != "a" {
			t.Errorf("%s: tags = %v", what, d.Fields["tags"])
		}
		if d.Fields["n"].IntVal() != 1 || len(d.Fields) != 4 {
			t.Errorf("%s: fields = %v", what, d)
		}
	}
	got, _, err := r.GetDocument(ctx, "app", priv, name, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("strong read", got)
	if got.UpdateTime != ts || got.CreateTime != ts {
		t.Errorf("strong read: times %d/%d, want %d", got.CreateTime, got.UpdateTime, ts)
	}
	select {
	case ev := <-conn.Events():
		if len(ev.Added) != 1 {
			t.Fatalf("listener delta = %+v", ev)
		}
		check("listener", ev.Added[0])
		if ev.Added[0].UpdateTime != ts || ev.Added[0].CreateTime != ts {
			t.Errorf("listener: times %d/%d, want %d", ev.Added[0].CreateTime, ev.Added[0].UpdateTime, ts)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no real-time delta")
	}
	select {
	case ch := <-changes:
		check("trigger", ch.New)
		if ch.Old != nil || ch.TS != ts {
			t.Errorf("trigger: old %v, ts %d, want a create at %d", ch.Old, ch.TS, ts)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no trigger delivery")
	}

	// An update's trigger sees the old version as a read would have: the
	// stored row resolved against its version timestamp.
	ts2, err := r.Commit(ctx, "app", priv, []backend.WriteOp{{Kind: backend.OpSet, Name: name, Fields: map[string]doc.Value{"n": doc.Int(3)}}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ch := <-changes:
		check("trigger old", ch.Old)
		if ch.Old.UpdateTime != ts || ch.Old.CreateTime != ts {
			t.Errorf("trigger old: times %d/%d, want %d", ch.Old.CreateTime, ch.Old.UpdateTime, ts)
		}
		if ch.New.Fields["n"].IntVal() != 3 || ch.New.CreateTime != ts || ch.TS != ts2 {
			t.Errorf("trigger new: %v created %d at %d, want n=3 created %d at %d", ch.New, ch.New.CreateTime, ch.TS, ts, ts2)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no trigger delivery for the update")
	}
}
