package firestore

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/status"
)

func seedNumbered(t *testing.T, c *Client, coll string, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		err := c.Collection(coll).Doc(fmt.Sprintf("d%03d", i)).Set(ctx, map[string]any{"i": i})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDocumentIteratorNext(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	seedNumbered(t, c, "nums", 7)

	it := c.Collection("nums").OrderBy("i", Asc).Documents(ctx)
	defer it.Stop()
	var got []int64
	for {
		d, err := it.Next()
		if errors.Is(err, ErrIteratorDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		v, _ := d.DataAt("i")
		got = append(got, v.(int64))
	}
	if len(got) != 7 {
		t.Fatalf("iterated %d docs, want 7", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
	// The iterator is spent: Next keeps returning ErrIteratorDone.
	if _, err := it.Next(); !errors.Is(err, ErrIteratorDone) {
		t.Fatalf("Next after done = %v, want ErrIteratorDone", err)
	}
}

// TestIteratorReadsOneSnapshot reads a 1 500-document ordered query, two
// pages, and moves a document of the first page past it after the first
// row: every row comes from the first page's snapshot, so the moved
// document shows once, at its old place.
func TestIteratorReadsOneSnapshot(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	const n = 1500
	for lo := 0; lo < n; lo += 250 {
		var ops []backend.WriteOp
		for i := lo; i < lo+250; i++ {
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/nums/d%04d", i)), Fields: map[string]doc.Value{"i": doc.Int(int64(i))}})
		}
		if _, err := c.region.Backend.Commit(ctx, "app", backend.Principal{Privileged: true}, ops); err != nil {
			t.Fatal(err)
		}
	}
	it := c.Collection("nums").OrderBy("i", Asc).Documents(ctx)
	defer it.Stop()
	first, err := it.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Collection("nums").Doc("d0500").Set(ctx, map[string]any{"i": 2 * n}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{first.Ref.ID(): 1}
	rows := 1
	for {
		d, err := it.Next()
		if errors.Is(err, ErrIteratorDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !d.ReadTime.Equal(first.ReadTime) {
			t.Fatalf("row %d (%s) read at %v, the first at %v", rows, d.Ref.ID(), d.ReadTime, first.ReadTime)
		}
		if v, _ := d.DataAt("i"); d.Ref.ID() == "d0500" && v != int64(500) {
			t.Fatalf("moved document read as i=%v, want its first snapshot's 500", v)
		}
		seen[d.Ref.ID()]++
		rows++
	}
	if rows != n || len(seen) != n || seen["d0500"] != 1 {
		t.Fatalf("%d rows, %d distinct, the moved document %d times; want %d, %d, once", rows, len(seen), seen["d0500"], n, n)
	}
}

func TestDocumentIteratorStop(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	seedNumbered(t, c, "nums", 5)

	it := c.Collection("nums").Documents(ctx)
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	it.Stop()
	if _, err := it.Next(); !errors.Is(err, ErrIteratorDone) {
		t.Fatalf("Next after Stop = %v, want ErrIteratorDone", err)
	}
}

func TestDocumentIteratorBuildError(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	it := c.Collection("nums").Where("a", ">", 1).Where("b", "<", 2).Documents(ctx)
	if _, err := it.Next(); err == nil || errors.Is(err, ErrIteratorDone) {
		t.Fatalf("Next on invalid query = %v, want build error", err)
	}
}

func TestQueryCursors(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	seedNumbered(t, c, "nums", 10)
	q := c.Collection("nums").OrderBy("i", Asc)

	got := func(q Query) []int64 {
		t.Helper()
		docs, err := q.GetAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, len(docs))
		for i, d := range docs {
			v, _ := d.DataAt("i")
			out[i] = v.(int64)
		}
		return out
	}

	if vs := got(q.StartAt(7)); len(vs) != 3 || vs[0] != 7 {
		t.Fatalf("StartAt(7) = %v", vs)
	}
	if vs := got(q.StartAfter(7)); len(vs) != 2 || vs[0] != 8 {
		t.Fatalf("StartAfter(7) = %v", vs)
	}
	if vs := got(q.EndAt(2)); len(vs) != 3 || vs[2] != 2 {
		t.Fatalf("EndAt(2) = %v", vs)
	}
	if vs := got(q.EndBefore(2)); len(vs) != 2 || vs[1] != 1 {
		t.Fatalf("EndBefore(2) = %v", vs)
	}
	if vs := got(q.StartAfter(3).EndBefore(6)); len(vs) != 2 || vs[0] != 4 || vs[1] != 5 {
		t.Fatalf("StartAfter(3).EndBefore(6) = %v", vs)
	}
}

// TestCursorPagination resumes page after page with StartAfter(lastDoc),
// the canonical pagination pattern the name tie-break makes exact.
func TestCursorPagination(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	seedNumbered(t, c, "nums", 9)
	base := c.Collection("nums").OrderBy("i", Asc)

	var all []int64
	var last *DocumentSnapshot
	for page := 0; ; page++ {
		q := base.Limit(4)
		if last != nil {
			v, _ := last.DataAt("i")
			q = q.StartAfter(v, last)
		}
		docs, err := q.GetAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) == 0 {
			break
		}
		for _, d := range docs {
			v, _ := d.DataAt("i")
			all = append(all, v.(int64))
		}
		last = docs[len(docs)-1]
		if page > 5 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(all) != 9 {
		t.Fatalf("paged %d docs, want 9: %v", len(all), all)
	}
	for i, v := range all {
		if v != int64(i) {
			t.Fatalf("all[%d] = %d, want %d (duplicate or skip at a page boundary)", i, v, i)
		}
	}
}

func TestCursorValidationError(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	seedNumbered(t, c, "nums", 1)

	// More cursor values than sort orders (and the extra is not a name).
	_, err := c.Collection("nums").OrderBy("i", Asc).StartAt(1, 2, 3).GetAll(ctx)
	if status.CodeOf(err) != status.InvalidArgument {
		t.Fatalf("misaligned cursor error = %v, want InvalidArgument", err)
	}
	// Unsupported cursor value type.
	_, err = c.Collection("nums").OrderBy("i", Asc).StartAt(make(chan int)).GetAll(ctx)
	if err == nil {
		t.Fatal("channel cursor value accepted")
	}
}
