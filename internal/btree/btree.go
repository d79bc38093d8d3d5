// Package btree implements an in-memory B-tree keyed by byte strings. It
// is the ordered row store underneath each Spanner tablet in this
// reproduction: tablets need efficient point lookups, ordered range scans
// (Firestore queries are linear scans over IndexEntries key ranges,
// §IV-D3), and cheap splitting at a median key (Spanner's load-based
// tablet splitting, §IV-D1).
//
// A Tree[V] keeps each value by value in its node's item, so a lookup or
// a range walk reaches it with no further pointer hop; the storage layer
// keeps per-key MVCC version chains in it. Get, Upsert and Ascend hand
// out a *V into the node, through which the caller may write; it is
// valid until the next Upsert or Set of an absent key or the next
// Delete. Get, Ascend, KeyAt and Len only read, so they may run
// concurrently with each other but not with a write; callers synchronize
// (each tablet guards its tree with its own lock).
package btree

import (
	"bytes"
	"slices"
)

// degree is the minimum number of children of an internal node. Nodes hold
// between degree-1 and 2*degree-1 items.
const degree = 32

const maxItems = 2*degree - 1

type item[V any] struct {
	key   []byte
	value V
}

type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
}

// newNode allocates a node and its item (and, for an internal node,
// child) array at full capacity in one object, so no insert, borrow or
// merge regrows them and a split allocates only the new sibling.
func newNode[V any](leaf bool) *node[V] {
	if leaf {
		b := new(struct {
			n     node[V]
			items [maxItems]item[V]
		})
		b.n.items = b.items[:0]
		return &b.n
	}
	b := new(struct {
		n        node[V]
		items    [maxItems]item[V]
		children [maxItems + 1]*node[V]
	})
	b.n.items, b.n.children = b.items[:0], b.children[:0]
	return &b.n
}

func (n *node[V]) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item with key >= k and whether that
// item's key equals k.
func (n *node[V]) find(k []byte) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.items[mid].key, k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.items) && bytes.Equal(n.items[lo].key, k)
}

// Tree is a B-tree mapping byte-string keys to values of type V. The zero
// value is an empty tree ready to use.
type Tree[V any] struct {
	root   *node[V]
	length int
}

// Len returns the number of keys in the tree.
func (t *Tree[V]) Len() int { return t.length }

// Get returns a pointer to the value stored for key, or nil if absent.
func (t *Tree[V]) Get(key []byte) *V {
	n := t.root
	for n != nil {
		i, eq := n.find(key)
		if eq {
			return &n.items[i].value
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
	return nil
}

// Upsert returns a pointer to key's value and whether key was present,
// first inserting key with the zero value if it was not. An inserted key
// slice is retained; the caller must not mutate it afterwards.
func (t *Tree[V]) Upsert(key []byte) (*V, bool) {
	// The first descent changes nothing, so a present key never splits
	// a node, and an absent one lands in a leaf with room.
	for n := t.root; n != nil; {
		i, eq := n.find(key)
		if eq {
			return &n.items[i].value, true
		}
		if n.leaf() {
			if len(n.items) < maxItems {
				return t.insertAt(n, i, key), false
			}
			break
		}
		n = n.children[i]
	}
	// The leaf is full: descend again, splitting every full node before
	// entering it, so each split's median has room in its parent.
	if t.root == nil {
		t.root = newNode[V](true)
	} else if len(t.root.items) == maxItems {
		old := t.root
		t.root = newNode[V](false)
		t.root.children = append(t.root.children, old)
	}
	n := t.root
	for {
		i, _ := n.find(key)
		if n.leaf() {
			return t.insertAt(n, i, key), false
		}
		if len(n.children[i].items) == maxItems {
			median, right := n.children[i].split()
			n.items = slices.Insert(n.items, i, median)
			n.children = slices.Insert(n.children, i+1, right)
			if bytes.Compare(key, median.key) > 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

func (t *Tree[V]) insertAt(leaf *node[V], i int, key []byte) *V {
	leaf.items = slices.Insert(leaf.items, i, item[V]{key: key})
	t.length++
	return &leaf.items[i].value
}

// Set stores value for key, replacing any existing value. It returns the
// previous value and whether one existed. An inserted key slice is
// retained; the caller must not mutate it afterwards.
func (t *Tree[V]) Set(key []byte, value V) (prev V, existed bool) {
	p, existed := t.Upsert(key)
	prev, *p = *p, value
	return prev, existed
}

// split splits a full node into two, returning the median item and the new
// right sibling.
func (n *node[V]) split() (item[V], *node[V]) {
	mid := len(n.items) / 2
	median := n.items[mid]
	right := newNode[V](n.leaf())
	right.items = append(right.items, n.items[mid+1:]...)
	clear(n.items[mid:])
	n.items = n.items[:mid]
	if !n.leaf() {
		right.children = append(right.children, n.children[mid+1:]...)
		clear(n.children[mid+1:])
		n.children = n.children[:mid+1]
	}
	return median, right
}

// Delete removes key from the tree, returning its value and whether it was
// present. A tree emptied by Delete keeps its root leaf.
func (t *Tree[V]) Delete(key []byte) (V, bool) {
	if t.root == nil {
		var zero V
		return zero, false
	}
	v, ok := t.root.remove(key)
	if ok {
		t.length--
	}
	// An emptied root leaf stays, so a tree that drains and refills (a
	// lock table between commits) does not allocate it again.
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return v, ok
}

func (n *node[V]) remove(key []byte) (V, bool) {
	i, eq := n.find(key)
	if n.leaf() {
		if !eq {
			var zero V
			return zero, false
		}
		v := n.items[i].value
		n.items = slices.Delete(n.items, i, i+1)
		return v, true
	}
	if eq {
		// Replace with predecessor from the left subtree, then delete
		// the predecessor from there.
		v := n.items[i].value
		n.growChild(i)
		// growChild may have moved things; re-find.
		i, eq = n.find(key)
		if !eq {
			// The item migrated into a child during rebalancing.
			_, ok := n.children[i].remove(key)
			return v, ok
		}
		pred := n.children[i].max()
		n.items[i] = pred
		n.children[i].remove(pred.key)
		return v, true
	}
	n.growChild(i)
	i, eq = n.find(key)
	if eq {
		// Rebalancing pulled the key up into this node.
		return n.remove(key)
	}
	return n.children[i].remove(key)
}

// growChild ensures children[i] has at least degree items so a delete can
// recurse into it safely, borrowing from or merging with a sibling.
func (n *node[V]) growChild(i int) {
	if len(n.children[i].items) >= degree {
		return
	}
	switch {
	case i > 0 && len(n.children[i-1].items) >= degree:
		// Borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		last := len(left.items) - 1
		child.items = slices.Insert(child.items, 0, n.items[i-1])
		n.items[i-1] = left.items[last]
		left.items = slices.Delete(left.items, last, last+1)
		if !left.leaf() {
			child.children = slices.Insert(child.children, 0, left.children[last+1])
			left.children = slices.Delete(left.children, last+1, last+2)
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) >= degree:
		// Borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = slices.Delete(right.items, 0, 1)
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = slices.Delete(right.children, 0, 1)
		}
	default:
		// Merge with a sibling.
		if i >= len(n.children)-1 {
			i--
		}
		child, right := n.children[i], n.children[i+1]
		child.items = append(append(child.items, n.items[i]), right.items...)
		child.children = append(child.children, right.children...)
		n.items = slices.Delete(n.items, i, i+1)
		n.children = slices.Delete(n.children, i+1, i+2)
	}
}

func (n *node[V]) max() item[V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Ascend calls fn for each key/value with begin <= key < end in ascending
// order. A nil begin means from the start; a nil end means to the end.
// Iteration stops early if fn returns false.
func (t *Tree[V]) Ascend(begin, end []byte, fn func(key []byte, value *V) bool) {
	if t.root != nil {
		t.root.ascend(begin, end, fn)
	}
}

// ascend walks the range once: begin is searched for only on the leftmost
// descent and is nil right of it, and end is compared only against
// separators and in the boundary leaf — a child left of a separator below
// end is walked with end nil.
func (n *node[V]) ascend(begin, end []byte, fn func([]byte, *V) bool) bool {
	i := 0
	if begin != nil {
		i, _ = n.find(begin)
	}
	for ; i < len(n.items); i++ {
		it := &n.items[i]
		past := end != nil && bytes.Compare(it.key, end) >= 0
		if !n.leaf() {
			childEnd := end
			if !past {
				childEnd = nil
			}
			if !n.children[i].ascend(begin, childEnd, fn) {
				return false
			}
		}
		if past || !fn(it.key, &it.value) {
			return false
		}
		begin = nil
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(begin, end, fn)
	}
	return true
}

// KeyAt returns the i-th smallest key (0-based). It is used to find median
// split points; it runs in O(log n + i) via iteration and returns false if
// i is out of range.
func (t *Tree[V]) KeyAt(i int) ([]byte, bool) {
	if i < 0 || i >= t.length {
		return nil, false
	}
	var key []byte
	idx := 0
	t.Ascend(nil, nil, func(k []byte, _ *V) bool {
		if idx == i {
			key = k
			return false
		}
		idx++
		return true
	})
	return key, key != nil
}
