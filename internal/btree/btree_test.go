package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := new(Tree[int])
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.Get([]byte("x")) != nil {
		t.Fatal("Get on empty tree returned a value")
	}
	if _, ok := tr.Delete([]byte("x")); ok {
		t.Fatal("Delete on empty tree returned ok")
	}
	tr.Ascend(nil, nil, func([]byte, *int) bool { t.Fatal("Ascend visited on empty tree"); return false })
}

func TestSetGetSequential(t *testing.T) {
	tr := new(Tree[int])
	const n = 5000
	for i := 0; i < n; i++ {
		if _, existed := tr.Set(key(i), i); existed {
			t.Fatalf("Set(%d) reported existing", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v := tr.Get(key(i)); v == nil || *v != i {
			t.Fatalf("Get(%d) = %v", i, v)
		}
	}
}

func TestSetReplace(t *testing.T) {
	tr := new(Tree[int])
	tr.Set([]byte("a"), 1)
	prev, existed := tr.Set([]byte("a"), 2)
	if !existed || prev != 1 {
		t.Fatalf("replace = %v, %v; want 1, true", prev, existed)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", tr.Len())
	}
	if v := tr.Get([]byte("a")); *v != 2 {
		t.Fatalf("Get = %d, want 2", *v)
	}
}

func TestDeleteRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := new(Tree[int])
	const n = 3000
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Set(key(i), i)
	}
	perm2 := rng.Perm(n)
	for cnt, i := range perm2 {
		v, ok := tr.Delete(key(i))
		if !ok || v != i {
			t.Fatalf("Delete(%d) = %v, %v", i, v, ok)
		}
		if tr.Len() != n-cnt-1 {
			t.Fatalf("Len = %d, want %d", tr.Len(), n-cnt-1)
		}
	}
	// The emptied tree keeps its root leaf but holds nothing.
	if tr.Len() != 0 || tr.Get(key(perm[0])) != nil {
		t.Fatalf("after deleting everything: Len = %d, Get(%d) = %v", tr.Len(), perm[0], tr.Get(key(perm[0])))
	}
	tr.Ascend(nil, nil, func(k []byte, _ *int) bool {
		t.Fatalf("Ascend visits %q after deleting everything", k)
		return false
	})
}

func TestDeleteMissing(t *testing.T) {
	tr := new(Tree[int])
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	if _, ok := tr.Delete([]byte("nope")); ok {
		t.Fatal("Delete of missing key returned ok")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len changed to %d", tr.Len())
	}
}

func TestAscendFullOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := new(Tree[int])
	const n = 2000
	for _, i := range rng.Perm(n) {
		tr.Set(key(i), i)
	}
	var got [][]byte
	tr.Ascend(nil, nil, func(k []byte, _ *int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != n {
		t.Fatalf("visited %d keys, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("out of order at %d: %q >= %q", i, got[i-1], got[i])
		}
	}
}

func TestAscendRange(t *testing.T) {
	tr := new(Tree[int])
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	var got []int
	tr.Ascend(key(10), key(20), func(_ []byte, v *int) bool {
		got = append(got, *v)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("range [10,20) visited %d keys: %v", len(got), got)
	}
	for i, v := range got {
		if v != 10+i {
			t.Fatalf("got[%d] = %d, want %d", i, v, 10+i)
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := new(Tree[int])
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	count := 0
	tr.Ascend(nil, nil, func([]byte, *int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestKeyAt(t *testing.T) {
	tr := new(Tree[int])
	for i := 0; i < 200; i++ {
		tr.Set(key(i), i)
	}
	for _, i := range []int{0, 1, 99, 100, 199} {
		k, ok := tr.KeyAt(i)
		if !ok || !bytes.Equal(k, key(i)) {
			t.Fatalf("KeyAt(%d) = %q, %v", i, k, ok)
		}
	}
	if _, ok := tr.KeyAt(-1); ok {
		t.Fatal("KeyAt(-1) ok")
	}
	if _, ok := tr.KeyAt(200); ok {
		t.Fatal("KeyAt(len) ok")
	}
}

// TestQuickAgainstMap drives random operations against the tree and a
// reference map, checking full equivalence including iteration order.
// Upsert's flag must match the reference and its pointer must read the
// reference's value; writes through the *V of Upsert and Ascend must
// land in the tree.
func TestQuickAgainstMap(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := new(Tree[int])
		ref := map[string]int{}
		// bump adds d to every value a walk visits, through its *V.
		bump := func(d int) func([]byte, *int) bool {
			return func(k []byte, v *int) bool {
				*v += d
				ref[string(k)] += d
				return rng.Intn(50) != 0
			}
		}
		for op := 0; op < 3000; op++ {
			k := []byte(fmt.Sprintf("%04d", rng.Intn(500)))
			switch rng.Intn(6) {
			case 0, 1:
				v := rng.Int()
				_, existed := tr.Set(k, v)
				if _, refExists := ref[string(k)]; existed != refExists {
					return false
				}
				ref[string(k)] = v
			case 2, 3:
				p, existed := tr.Upsert(k)
				refV, refExists := ref[string(k)]
				if existed != refExists || *p != refV {
					return false
				}
				*p = rng.Int()
				ref[string(k)] = *p
			case 4:
				_, ok := tr.Delete(k)
				_, refOK := ref[string(k)]
				if ok != refOK {
					return false
				}
				delete(ref, string(k))
			case 5:
				tr.Ascend(k, nil, bump(1))
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		var keys []string
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		okAll := true
		tr.Ascend(nil, nil, func(k []byte, v *int) bool {
			if i >= len(keys) || string(k) != keys[i] || *v != ref[keys[i]] {
				okAll = false
				return false
			}
			i++
			return true
		})
		return okAll && i == len(keys)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestUpsertAllocs pins the node layout: an Upsert of a present key
// changes nothing and allocates nothing, and a node's arrays are
// allocated with it at full capacity, so inserts allocate only at a
// split, one object per new node (a leaf splits about once per 32).
func TestUpsertAllocs(t *testing.T) {
	const n = 10000
	keys := make([][]byte, 2*n) // even keys present, odd keys fresh
	for i := range keys {
		keys[i] = key(i)
	}
	rng := rand.New(rand.NewSource(42))
	tr := new(Tree[int])
	for _, i := range rng.Perm(n) {
		tr.Set(keys[2*i], i)
	}
	existing := testing.AllocsPerRun(1, func() {
		for j := 0; j < 1000; j++ {
			p, _ := tr.Upsert(keys[2*rng.Intn(n)])
			*p++
		}
	})
	if existing != 0 {
		t.Errorf("1 000 Upserts of present keys allocate %.0f times, want 0", existing)
	}
	fresh := rng.Perm(n)
	inserts := 0
	got := testing.AllocsPerRun(1, func() {
		for j := 0; j < 1000; j++ {
			tr.Upsert(keys[2*fresh[inserts]+1])
			inserts++
		}
	})
	if tr.Len() != n+inserts {
		t.Fatalf("Len = %d after %d fresh inserts, want %d", tr.Len(), inserts, n+inserts)
	}
	t.Logf("1 000 fresh inserts: %.0f allocations", got)
	if got > 1000/16 {
		t.Errorf("1 000 fresh inserts allocate %.0f times, want <= %d", got, 1000/16)
	}
}

func (n *node[V]) depth() int {
	if n.leaf() {
		return 1
	}
	return 1 + n.children[0].depth()
}

// TestRangeWalksMatchReference checks Ascend against a sorted slice over
// random bounds — present keys, absent keys, nil, begin >= end — each
// stopped at a random row, on small trees and on trees deep enough that a
// range crosses separators at every level.
func TestRangeWalksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 7, 63, 64, 500, 12000, 30000} {
		tr := new(Tree[int])
		var ref [][]byte // the tree's keys in order: key(2i), so odd keys are absent
		for _, i := range rng.Perm(n) {
			tr.Set(key(2*i), 2*i)
		}
		for i := 0; i < n; i++ {
			// Delete every fifth key, so nodes are not all split-fresh.
			if i%5 == 4 {
				tr.Delete(key(2 * i))
				continue
			}
			ref = append(ref, key(2*i))
		}
		if n >= 10000 && tr.root.depth() < 3 {
			t.Fatalf("%d keys: depth %d, want >= 3", n, tr.root.depth())
		}
		bound := func() []byte {
			if rng.Intn(8) == 0 {
				return nil
			}
			return key(rng.Intn(2*n+4) - 2)
		}
		for round := 0; round < 300; round++ {
			begin, end := bound(), bound()
			var want [][]byte
			for _, k := range ref {
				if (begin == nil || bytes.Compare(k, begin) >= 0) && (end == nil || bytes.Compare(k, end) < 0) {
					want = append(want, k)
				}
			}
			stop := rng.Intn(len(want) + 2) // rows before fn says stop; > len(want): never
			walk := func(name string, visit func([]byte, []byte, func([]byte, *int) bool), want [][]byte) {
				var got [][]byte
				visit(begin, end, func(k []byte, _ *int) bool {
					got = append(got, k)
					return len(got) != stop
				})
				if stop > 0 && stop < len(want) {
					want = want[:stop]
				}
				if len(got) != len(want) {
					t.Fatalf("%d keys, %s [%q, %q) stop %d: %d rows, want %d", n, name, begin, end, stop, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%d keys, %s [%q, %q) stop %d: row %d is %q, want %q", n, name, begin, end, stop, i, got[i], want[i])
					}
				}
			}
			walk("Ascend", tr.Ascend, want)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	tr := new(Tree[int])
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Set(keys[i], i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := new(Tree[int])
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Set(key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

func BenchmarkAscend100(b *testing.B) {
	tr := new(Tree[int])
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Set(key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.Ascend(key(i%1000*50), nil, func([]byte, *int) bool {
			count++
			return count < 100
		})
	}
}
