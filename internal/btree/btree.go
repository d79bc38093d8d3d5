// Package btree implements an in-memory B-tree keyed by byte strings. It
// is the ordered row store underneath each Spanner tablet in this
// reproduction: tablets need efficient point lookups, ordered range scans
// (Firestore queries are linear scans over IndexEntries key ranges,
// §IV-D3), and cheap splitting at a median key (Spanner's load-based
// tablet splitting, §IV-D1).
//
// The tree stores opaque values of any type; the Spanner layer stores
// per-key MVCC version chains in it. It is not safe for concurrent use;
// callers synchronize (each tablet guards its tree with its own lock).
package btree

import "bytes"

// degree is the minimum number of children of an internal node. Nodes hold
// between degree-1 and 2*degree-1 items.
const degree = 32

const maxItems = 2*degree - 1

type item struct {
	key   []byte
	value any
}

type node struct {
	items    []item
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item with key >= k and whether that
// item's key equals k.
func (n *node) find(k []byte) (int, bool) {
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

// Tree is a B-tree mapping byte-string keys to values. The zero value is
// an empty tree ready to use.
type Tree struct {
	root   *node
	length int
}

// New returns an empty tree. Equivalent to new(Tree).
func New() *Tree { return new(Tree) }

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.length }

// Get returns the value stored for key, or (nil, false) if absent.
func (t *Tree) Get(key []byte) (any, bool) {
	n := t.root
	for n != nil {
		i, eq := n.find(key)
		if eq {
			return n.items[i].value, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
	return nil, false
}

// Set stores value for key, replacing any existing value. It returns the
// previous value and whether one existed. The key slice is retained; the
// caller must not mutate it afterwards.
func (t *Tree) Set(key []byte, value any) (any, bool) {
	if t.root == nil {
		t.root = &node{items: []item{{key: key, value: value}}}
		t.length = 1
		return nil, false
	}
	if len(t.root.items) == maxItems {
		left := t.root
		mid, right := left.split()
		t.root = &node{
			items:    []item{mid},
			children: []*node{left, right},
		}
	}
	prev, existed := t.root.insert(key, value)
	if !existed {
		t.length++
	}
	return prev, existed
}

// split splits a full node into two, returning the median item and the new
// right sibling.
func (n *node) split() (item, *node) {
	mid := len(n.items) / 2
	median := n.items[mid]
	right := &node{}
	right.items = append(right.items, n.items[mid+1:]...)
	n.items = n.items[:mid:mid]
	if !n.leaf() {
		right.children = append(right.children, n.children[mid+1:]...)
		n.children = n.children[: mid+1 : mid+1]
	}
	return median, right
}

func (n *node) insert(key []byte, value any) (any, bool) {
	i, eq := n.find(key)
	if eq {
		prev := n.items[i].value
		n.items[i].value = value
		return prev, true
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: key, value: value}
		return nil, false
	}
	if len(n.children[i].items) == maxItems {
		median, right := n.children[i].split()
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = median
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
		switch c := bytes.Compare(key, median.key); {
		case c == 0:
			prev := n.items[i].value
			n.items[i].value = value
			return prev, true
		case c > 0:
			i++
		}
	}
	return n.children[i].insert(key, value)
}

// Delete removes key from the tree, returning its value and whether it was
// present.
func (t *Tree) Delete(key []byte) (any, bool) {
	if t.root == nil {
		return nil, false
	}
	v, ok := t.root.remove(key)
	if ok {
		t.length--
	}
	if len(t.root.items) == 0 {
		if t.root.leaf() {
			t.root = nil
		} else {
			t.root = t.root.children[0]
		}
	}
	return v, ok
}

func (n *node) remove(key []byte) (any, bool) {
	i, eq := n.find(key)
	if n.leaf() {
		if !eq {
			return nil, false
		}
		v := n.items[i].value
		n.items = append(n.items[:i], n.items[i+1:]...)
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
func (n *node) growChild(i int) {
	if len(n.children[i].items) >= degree {
		return
	}
	switch {
	case i > 0 && len(n.children[i-1].items) >= degree:
		// Borrow from left sibling.
		child, left := n.children[i], n.children[i-1]
		child.items = append(child.items, item{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
		}
	case i < len(n.children)-1 && len(n.children[i+1].items) >= degree:
		// Borrow from right sibling.
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = append(right.items[:0], right.items[1:]...)
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
	default:
		// Merge with a sibling.
		if i >= len(n.children)-1 {
			i--
		}
		child, right := n.children[i], n.children[i+1]
		child.items = append(child.items, n.items[i])
		child.items = append(child.items, right.items...)
		child.children = append(child.children, right.children...)
		n.items = append(n.items[:i], n.items[i+1:]...)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
	}
}

func (n *node) max() item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Ascend calls fn for each key/value with begin <= key < end in ascending
// order. A nil begin means from the start; a nil end means to the end.
// Iteration stops early if fn returns false.
func (t *Tree) Ascend(begin, end []byte, fn func(key []byte, value any) bool) {
	if t.root != nil {
		t.root.ascend(begin, end, fn)
	}
}

// ascend walks the range once: begin is searched for only on the leftmost
// descent and is nil right of it, and end is compared only against
// separators and in the boundary leaf — a child left of a separator below
// end is walked with end nil.
func (n *node) ascend(begin, end []byte, fn func([]byte, any) bool) bool {
	i := 0
	if begin != nil {
		i, _ = n.find(begin)
	}
	for ; i < len(n.items); i++ {
		it := n.items[i]
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
		if past || !fn(it.key, it.value) {
			return false
		}
		begin = nil
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(begin, end, fn)
	}
	return true
}

// Descend calls fn for each key/value with begin <= key < end in
// descending order. Semantics mirror Ascend.
func (t *Tree) Descend(begin, end []byte, fn func(key []byte, value any) bool) {
	if t.root != nil {
		t.root.descend(begin, end, fn)
	}
}

// descend mirrors ascend: end is searched for only on the rightmost
// descent, and begin is compared only against separators and in the
// boundary leaf.
func (n *node) descend(begin, end []byte, fn func([]byte, any) bool) bool {
	i := len(n.items)
	if end != nil {
		i, _ = n.find(end)
	}
	for ; i > 0; i-- {
		it := n.items[i-1]
		before := begin != nil && bytes.Compare(it.key, begin) < 0
		if !n.leaf() {
			childBegin := begin
			if !before {
				childBegin = nil
			}
			if !n.children[i].descend(childBegin, end, fn) {
				return false
			}
		}
		if before || !fn(it.key, it.value) {
			return false
		}
		end = nil
	}
	if !n.leaf() {
		return n.children[0].descend(begin, end, fn)
	}
	return true
}

// Min returns the smallest key and its value, or (nil, nil, false) on an
// empty tree.
func (t *Tree) Min() ([]byte, any, bool) {
	n := t.root
	if n == nil {
		return nil, nil, false
	}
	for !n.leaf() {
		n = n.children[0]
	}
	it := n.items[0]
	return it.key, it.value, true
}

// MaxKey returns the largest key and its value, or (nil, nil, false) on an
// empty tree.
func (t *Tree) MaxKey() ([]byte, any, bool) {
	if t.root == nil {
		return nil, nil, false
	}
	it := t.root.max()
	return it.key, it.value, true
}

// KeyAt returns the i-th smallest key (0-based). It is used to find median
// split points; it runs in O(log n + i) via iteration and returns false if
// i is out of range.
func (t *Tree) KeyAt(i int) ([]byte, bool) {
	if i < 0 || i >= t.length {
		return nil, false
	}
	var key []byte
	idx := 0
	t.Ascend(nil, nil, func(k []byte, _ any) bool {
		if idx == i {
			key = k
			return false
		}
		idx++
		return true
	})
	return key, key != nil
}

// Clone returns a copy of the tree sharing no mutable structure with the
// original. Values are copied by reference.
func (t *Tree) Clone() *Tree {
	c := &Tree{length: t.length}
	if t.root != nil {
		c.root = t.root.clone()
	}
	return c
}

func (n *node) clone() *node {
	c := &node{items: append([]item(nil), n.items...)}
	if !n.leaf() {
		c.children = make([]*node, len(n.children))
		for i, ch := range n.children {
			c.children[i] = ch.clone()
		}
	}
	return c
}
