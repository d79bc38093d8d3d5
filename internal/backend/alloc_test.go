package backend

import (
	"context"
	"math/rand"
	"testing"

	"firestore/internal/doc"
)

// TestCommitAllocs holds the write path's allocation count for the
// benchmark's YCSB document — one 900-byte binary field, every byte
// replaced — committed over storage.Mem with the Real-time Cache and
// billing attached: 196 before the path was rebuilt around one encoding
// per byte (DESIGN.md "Write path: who owns the bytes"), 64 after.
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
	if got > 110 {
		t.Errorf("Backend.Commit allocates %.0f times per YCSB update, want <= 110", got)
	}
}
