package spanner

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestTxnWriteBuffer: the write buffer is a slice resolved at commit, so
// the last write to a key must win wherever a map used to make it so —
// in the transaction's own reads between the writes and in what Commit
// applies. "k" starts committed as "0".
func TestTxnWriteBuffer(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		writes []string // "put:v" or "del"; a read follows each
		want   string   // the value after the last write, "" for absent
	}{
		{"put-put", []string{"put:1", "put:2"}, "2"},
		{"put-delete", []string{"put:1", "del"}, ""},
		{"delete-put", []string{"del", "put:3"}, "3"},
		{"delete-delete-put-put", []string{"del", "del", "put:4", "put:5"}, "5"},
	} {
		for _, readBetween := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/readBetween=%v", c.name, readBetween), func(t *testing.T) {
				db := testDB(t)
				put(t, db, "k", "0")
				put(t, db, "z", "kept")
				txn := db.Begin()
				txn.Put([]byte("a"), []byte("first")) // an unrelated write on each side of k
				for _, w := range c.writes {
					want, ok := strings.CutPrefix(w, "put:")
					if ok {
						txn.Put([]byte("k"), []byte(want))
					} else {
						want = ""
						txn.Delete([]byte("k"))
					}
					if !readBetween {
						continue
					}
					got, found, err := txn.Get(ctx, []byte("k"), false)
					if err != nil || found != ok || string(got) != want {
						t.Fatalf("after %s: Get = %q, %v, %v", w, got, found, err)
					}
				}
				txn.Put([]byte("m"), []byte("last"))
				ts := mustCommit(t, txn)
				got, _, found, err := db.SnapshotGet(ctx, []byte("k"), ts)
				if err != nil || found != (c.want != "") || string(got) != c.want {
					t.Fatalf("committed k = %q, %v, %v; want %q", got, found, err, c.want)
				}
				for key, want := range map[string]string{"a": "first", "m": "last", "z": "kept"} {
					if got, _, _, _ := db.SnapshotGet(ctx, []byte(key), ts); string(got) != want {
						t.Fatalf("committed %s = %q, want %q", key, got, want)
					}
				}
			})
		}
	}
}

// TestTxnCommitAllocs holds the allocation count of committing a
// document's write set — the Entities row plus two removed and two added
// ~1 KB IndexEntries rows — over the in-memory engine: 57 before the
// transaction owned its arguments, 16 after.
func TestTxnCommitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	db := testDB(t)
	ctx := context.Background()
	r := rand.New(rand.NewSource(3))
	key := func(table byte) []byte {
		k := make([]byte, 1024)
		r.Read(k)
		k[0] = table
		return k
	}
	value := make([]byte, 930)
	old := [2][]byte{key('I'), key('I')}
	commit := func() {
		txn := db.Begin()
		if _, _, err := txn.Get(ctx, []byte("E/ycsb/user42"), true); err != nil {
			t.Fatal(err)
		}
		txn.Put([]byte("E/ycsb/user42"), value)
		txn.Delete(old[0])
		txn.Delete(old[1])
		old = [2][]byte{key('I'), key('I')}
		txn.Put(old[0], []byte("/ycsb/user42"))
		txn.Put(old[1], []byte("/ycsb/user42"))
		if _, err := txn.Commit(ctx, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	// The run's own inputs: two keys, two name values and the entity key
	// literal conversions.
	const inputs = 7
	got := testing.AllocsPerRun(200, commit) - inputs
	t.Logf("Txn commit of a five-row write set: %.0f allocations", got)
	if got > 30 {
		t.Errorf("committing a five-row write set allocates %.0f times, want <= 30", got)
	}
}
