package firestore

import (
	"context"
	"testing"

	"firestore/internal/status"
)

// TestWriteMethods: the write methods of Transaction, WriteBatch
// and Client.BulkWriter each keep their contract. Every case starts from
// one document, /c/x with v = 1; want is the documents of /c afterwards.
func TestWriteMethods(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name  string
		write func(c *Client) error
		code  status.Code
		want  map[string]int64 // document ID -> v
	}{
		{"transaction update of a missing document", func(c *Client) error {
			return c.RunTransaction(ctx, func(tx *Transaction) error {
				return tx.Update(c.Doc("c/missing"), map[string]any{"v": 2})
			})
		}, status.NotFound, map[string]int64{"x": 1}},
		{"batch update of a missing document", func(c *Client) error {
			return c.Batch().Set(c.Doc("c/y"), map[string]any{"v": 2}).Update(c.Doc("c/missing"), map[string]any{"v": 2}).Commit(ctx)
		}, status.NotFound, map[string]int64{"x": 1}},
		{"batch create of an existing document applies nothing", func(c *Client) error {
			return c.Batch().Set(c.Doc("c/y"), map[string]any{"v": 2}).Create(c.Doc("c/x"), map[string]any{"v": 2}).Commit(ctx)
		}, status.AlreadyExists, map[string]int64{"x": 1}},
		{"batch update of an existing document", func(c *Client) error {
			return c.Batch().Update(c.Doc("c/x"), map[string]any{"v": 2}).Commit(ctx)
		}, status.OK, map[string]int64{"x": 2}},
		{"transaction delete", func(c *Client) error {
			return c.RunTransaction(ctx, func(tx *Transaction) error {
				if _, err := tx.Get(c.Doc("c/x")); err != nil {
					return err
				}
				return tx.Delete(c.Doc("c/x"))
			})
		}, status.OK, map[string]int64{}},
		{"set with a dotted field name", func(c *Client) error {
			return c.Doc("c/x").Set(ctx, map[string]any{"v": 2, "m.x": 1})
		}, status.InvalidArgument, map[string]int64{"x": 1}},
		{"batch with a dotted key in a map applies nothing", func(c *Client) error {
			return c.Batch().Set(c.Doc("c/y"), map[string]any{"v": 2}).Set(c.Doc("c/z"), map[string]any{"m": map[string]any{"a.b": 1}}).Commit(ctx)
		}, status.InvalidArgument, map[string]int64{"x": 1}},
		{"bulk writer with default options", func(c *Client) error {
			bw := c.BulkWriter(ctx)
			job, err := bw.Set(c.Doc("c/y"), map[string]any{"v": 2})
			if err != nil {
				return err
			}
			if err := bw.End(); err != nil {
				return err
			}
			_, err = job.Results()
			return err
		}, status.OK, map[string]int64{"x": 1, "y": 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClient(t)
			if err := c.Doc("c/x").Set(ctx, map[string]any{"v": 1}); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(c); status.CodeOf(err) != tc.code {
				t.Fatalf("write = %v, want %v", err, tc.code)
			}
			docs, err := c.Collection("c").GetAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int64{}
			for _, d := range docs {
				got[d.Ref.ID()], _ = d.Data()["v"].(int64)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("documents after the write = %v, want %v", got, tc.want)
			}
			for id, v := range tc.want {
				if got[id] != v {
					t.Fatalf("documents after the write = %v, want %v", got, tc.want)
				}
			}
		})
	}
}
