// Package index implements Firestore's secondary indexing (§III-B,
// §IV-D1): automatic ascending and descending single-field indexes on
// every field (with per-field exemptions), array-contains entries,
// user-defined composite indexes, and the computation of index-entry
// diffs for writes. Index entries are byte-string keys laid out exactly
// as the paper describes — an (index-id, values, name) tuple whose
// encoding preserves the index's sort order — destined for the
// IndexEntries table rows in Spanner.
package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"firestore/internal/doc"
	"firestore/internal/encoding"
)

// Direction orders an index field.
type Direction int

const (
	Ascending Direction = iota
	Descending
)

func (d Direction) String() string {
	if d == Descending {
		return "desc"
	}
	return "asc"
}

// Field is one component of a composite index.
type Field struct {
	Path doc.FieldPath
	Dir  Direction
}

func (f Field) String() string { return string(f.Path) + " " + f.Dir.String() }

// Kind distinguishes index families.
type Kind int

const (
	// KindAuto is an automatic single-field index (one per field path
	// and direction, §III-B).
	KindAuto Kind = iota
	// KindContains is the automatic array-membership index.
	KindContains
	// KindComposite is a user-defined multi-field index.
	KindComposite
)

// Definition describes one index. Indexes apply to every collection with
// a matching collection ID anywhere in the hierarchy, like the production
// service.
type Definition struct {
	ID         uint64
	Kind       Kind
	Collection string // collection ID, e.g. "ratings"
	Fields     []Field
}

func (d Definition) String() string {
	parts := make([]string, len(d.Fields))
	for i, f := range d.Fields {
		parts[i] = f.String()
	}
	return fmt.Sprintf("index(%s: %s)", d.Collection, strings.Join(parts, ", "))
}

// AutoDef returns the automatic single-field index definition for a
// collection ID, field path, and direction. Its ID is deterministic, so
// autos need no registry: writers and the query planner derive the same
// definition independently.
func AutoDef(collection string, path doc.FieldPath, dir Direction) Definition {
	return Definition{
		ID:         stableID("auto", collection, string(path), dir.String()),
		Kind:       KindAuto,
		Collection: collection,
		Fields:     []Field{{Path: path, Dir: dir}},
	}
}

// ContainsDef returns the automatic array-contains index definition.
func ContainsDef(collection string, path doc.FieldPath) Definition {
	return Definition{
		ID:         stableID("contains", collection, string(path), ""),
		Kind:       KindContains,
		Collection: collection,
		Fields:     []Field{{Path: path, Dir: Ascending}},
	}
}

// CompositeDef returns a user-defined composite index definition with a
// deterministic ID derived from its shape.
func CompositeDef(collection string, fields ...Field) Definition {
	parts := make([]string, 0, 2*len(fields))
	for _, f := range fields {
		parts = append(parts, string(f.Path), f.Dir.String())
	}
	return Definition{
		ID:         stableID("composite", collection, strings.Join(parts, "|"), ""),
		Kind:       KindComposite,
		Collection: collection,
		Fields:     fields,
	}
}

// stableID is 64-bit FNV-1a over kind, collection, spec and dir joined by
// NUL bytes. IDs are persisted in every IndexEntries row key, so the
// bytes hashed and the hash itself are frozen (TestGoldenIDs).
func stableID(kind, collection, spec, dir string) uint64 {
	h := fnv1a(fnvOffset, kind)
	h = fnv1a(fnv1a(h, "\x00"), collection)
	h = fnv1a(fnv1a(h, "\x00"), spec)
	return fnv1a(fnv1a(h, "\x00"), dir)
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a continues a 64-bit FNV-1a hash from state h over s, without the
// heap-allocated hasher of hash/fnv.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// Exemptions records (collection, field path) pairs excluded from
// automatic indexing (§III-B: to avoid index cost or sequential-value
// hotspots). The zero value exempts nothing.
type Exemptions struct {
	set map[exemption]bool
}

type exemption struct {
	collection string
	path       doc.FieldPath
}

// Exempt marks path in collection as not automatically indexed.
func (e *Exemptions) Exempt(collection string, path doc.FieldPath) {
	if e.set == nil {
		e.set = map[exemption]bool{}
	}
	e.set[exemption{collection, path}] = true
}

// IsExempt reports whether the pair is exempted.
func (e *Exemptions) IsExempt(collection string, path doc.FieldPath) bool {
	return e != nil && e.set[exemption{collection, path}]
}

// Clone returns an independent copy of the exemption set.
func (e *Exemptions) Clone() Exemptions {
	return Exemptions{set: maps.Clone(e.set)}
}

// List returns the exempted pairs as "collection:path" strings, sorted.
func (e *Exemptions) List() []string {
	if e == nil {
		return nil
	}
	out := make([]string, 0, len(e.set))
	for k := range e.set {
		out = append(out, k.collection+":"+string(k.path))
	}
	sort.Strings(out)
	return out
}

// CollectionPrefix returns the key prefix shared by every entry of index
// id for documents directly inside collection c.
func CollectionPrefix(id uint64, c doc.CollectionPath) []byte {
	key := make([]byte, 0, 64)
	key = binary.BigEndian.AppendUint64(key, id)
	key = encoding.EncodeCollection(key, c)
	return append(key, 0x00)
}

// IDPrefix returns the 8-byte key prefix of an index's entries.
func IDPrefix(id uint64) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 0, 8), id)
}

// flatten appends the document's indexable (path, value) pairs to dst:
// map fields are flattened to their leaves (dot-joined paths), other
// values are taken whole. Pairs come back sorted by path, then value,
// and free of duplicates (a top-level field "a.b" and a map "a" holding
// "b" share a path).
func flatten(dst []FieldValue, d *doc.Document) []FieldValue {
	if d == nil {
		return dst
	}
	dst = flattenMap(dst, "", d.Fields)
	slices.SortFunc(dst, compareFields)
	return slices.CompactFunc(dst, func(a, b FieldValue) bool { return compareFields(a, b) == 0 })
}

func flattenMap(dst []FieldValue, prefix string, m map[string]doc.Value) []FieldValue {
	for k, v := range m {
		if prefix != "" {
			k = prefix + "." + k
		}
		if v.Kind() == doc.KindMap && len(v.MapVal()) > 0 {
			dst = flattenMap(dst, k, v.MapVal())
		} else {
			dst = append(dst, FieldValue{Path: doc.FieldPath(k), Value: v})
		}
	}
	return dst
}

// FieldValue is one flattened (path, value) pair.
type FieldValue struct {
	Path  doc.FieldPath
	Value doc.Value
}

func compareFields(a, b FieldValue) int {
	if c := strings.Compare(string(a.Path), string(b.Path)); c != 0 {
		return c
	}
	return doc.Compare(a.Value, b.Value)
}

// Entry pairs an IndexEntries row key with the structural offsets the
// cardinality statistics need: without them a raw key is opaque (the
// escaped document ID can begin with any byte, so value boundaries are
// not recoverable from the bytes alone).
//
// An IndexEntries key is the paper's (index-id, values, name) tuple with
// the name split around the values for range-scan locality: 8-byte
// big-endian index ID, the encoded parent collection path (so one
// collection's entries are a contiguous range — index definitions apply
// to every collection sharing an ID), the order-preserving encoding of
// the value tuple honoring each field's direction, and finally the
// escaped document ID as tie-breaker.
type Entry struct {
	// Key is the caller's row-key prefix followed by the IndexEntries
	// key, allocated once at its final size.
	Key []byte
	ID  uint64
	// PrefixEnds holds the offsets in Key where the statistically
	// interesting prefixes of the IndexEntries key end: the collection
	// prefix first, then the prefix through each successive value
	// component. The query planner estimates equality-prefix selectivity
	// by looking up exactly these prefixes; statistics hash Key[skip:end],
	// skip being the length of the row-key prefix. The entries of one
	// diff share one backing array.
	PrefixEnds []int
	skip       int
}

// differ is the pooled scratch of one DiffEntries call: what exists only
// to be compared or copied from lives here and is reused; the emitted
// keys, which the storage engine retains, are allocated one by one
// (DESIGN.md "Write path: who owns the bytes").
type differ struct {
	prefix     []byte // caller's row-key prefix
	head, tail []byte // encoded collection path and 0x00; escaped document ID
	vals       []byte // ascending encodings of the current entry's values
	cuts       []int  // where each value ends in vals
	ends       []int  // backing of the PrefixEnds built so far
	old, new   []FieldValue
	rem, add   []Entry
}

var differs = sync.Pool{New: func() any { return new(differ) }}

var ascending, descending = []Field{{Dir: Ascending}}, []Field{{Dir: Descending}}

// entry assembles one key from the scratch encodings: prefix, id, head,
// the values in vals (inverted where fields says descending), tail.
func (d *differ) entry(id uint64, fields []Field) Entry {
	key := make([]byte, 0, len(d.prefix)+8+len(d.head)+len(d.vals)+len(d.tail))
	key = binary.BigEndian.AppendUint64(append(key, d.prefix...), id)
	key = append(key, d.head...)
	first := len(d.ends)
	d.ends = append(d.ends, len(key))
	at := 0
	for i, cut := range d.cuts {
		key = append(key, d.vals[at:cut]...)
		if fields[i].Dir == Descending {
			encoding.InvertInPlace(key[len(key)-(cut-at):])
		}
		d.ends = append(d.ends, len(key))
		at = cut
	}
	return Entry{Key: append(key, d.tail...), ID: id, PrefixEnds: d.ends[first:], skip: len(d.prefix)}
}

// field appends the entries one flattened field implies: the ascending
// and descending automatic entries and, for an array, one contains entry
// per element.
func (d *differ) field(out []Entry, coll string, ex *Exemptions, fv FieldValue) []Entry {
	if ex.IsExempt(coll, fv.Path) {
		return out
	}
	d.vals = encoding.EncodeValue(d.vals[:0], fv.Value)
	d.cuts = append(d.cuts[:0], len(d.vals))
	out = append(out,
		d.entry(stableID("auto", coll, string(fv.Path), "asc"), ascending),
		d.entry(stableID("auto", coll, string(fv.Path), "desc"), descending))
	if fv.Value.Kind() == doc.KindArray {
		id := stableID("contains", coll, string(fv.Path), "")
		for _, el := range fv.Value.ArrayVal() {
			d.vals = encoding.EncodeValue(d.vals[:0], el)
			d.cuts[0] = len(d.vals)
			out = append(out, d.entry(id, ascending))
		}
	}
	return out
}

// composite appends def's entry for the document flat was flattened from.
func (d *differ) composite(out []Entry, def Definition, of *doc.Document, flat []FieldValue) []Entry {
	d.vals, d.cuts = d.vals[:0], d.cuts[:0]
	for _, f := range def.Fields {
		v, _ := lookup(of, flat, f.Path)
		d.vals = encoding.EncodeValue(d.vals, v)
		d.cuts = append(d.cuts, len(d.vals))
	}
	return append(out, d.entry(def.ID, def.Fields))
}

// lookup finds a field by path among the flattened leaves, falling back
// to the document for non-leaf map values referenced by composites.
func lookup(d *doc.Document, flat []FieldValue, p doc.FieldPath) (doc.Value, bool) {
	if d == nil {
		return doc.Value{}, false
	}
	i, ok := slices.BinarySearchFunc(flat, p, func(fv FieldValue, p doc.FieldPath) int {
		return strings.Compare(string(fv.Path), string(p))
	})
	if ok {
		return flat[i].Value, true
	}
	return d.Get(p)
}

// Entries computes the full set of IndexEntries keys for a document:
// ascending and descending automatic entries per flattened field (minus
// exemptions), array-contains entries per distinct array element, and one
// entry per matching composite index. The per-write cost is linear in the
// number of fields, which is exactly the Fig. 10b relationship.
func Entries(d *doc.Document, composites []Definition, ex *Exemptions) [][]byte {
	_, added := DiffEntries(nil, nil, d, composites, ex)
	return keysOf(added)
}

// Diff computes the IndexEntries mutations for a write: keys to remove
// (present for old but not new) and keys to add (present for new but not
// old). Either document may be nil (insert / delete).
func Diff(old, new *doc.Document, composites []Definition, ex *Exemptions) (removed, added [][]byte) {
	rem, add := DiffEntries(nil, old, new, composites, ex)
	return keysOf(rem), keysOf(add)
}

func keysOf(es []Entry) [][]byte {
	if len(es) == 0 {
		return nil
	}
	keys := make([][]byte, len(es))
	for i, e := range es {
		keys[i] = e.Key
	}
	return keys
}

// DiffEntries is Diff with the structural offsets preserved and every
// key built behind keyPrefix (a database's IndexEntries row-key prefix,
// or nil), so commit paths can hand the keys to the transaction as they
// are and fold the same diff into the cardinality statistics. Both lists
// come back sorted by key.
//
// The diff is by field, not by entry: a (path, value) pair present in
// both versions (doc.Equal values encode identically) emits and encodes
// nothing, and a composite is derived only when one of its fields
// differs. What the field walk over-emits — elements common to both
// versions of a changed array, duplicate elements — cancels in a final
// merge of the sorted keys, so the result is exactly the set difference
// of the two versions' entries.
func DiffEntries(keyPrefix []byte, old, new *doc.Document, composites []Definition, ex *Exemptions) (removed, added []Entry) {
	if old == nil && new == nil {
		return nil, nil
	}
	name := new
	if name == nil {
		name = old
	}
	parent := name.Name.Collection()
	coll := parent.ID()
	d := differs.Get().(*differ)
	d.prefix = keyPrefix
	d.head = append(encoding.EncodeCollection(d.head[:0], parent), 0x00)
	d.tail = encoding.AppendEscaped(d.tail[:0], name.Name.ID())
	d.old, d.new = flatten(d.old[:0], old), flatten(d.new[:0], new)
	d.rem, d.add, d.ends = d.rem[:0], d.add[:0], d.ends[:0]

	difference(d.old, d.new, compareFields,
		func(fv FieldValue) { d.rem = d.field(d.rem, coll, ex, fv) },
		func(fv FieldValue) { d.add = d.field(d.add, coll, ex, fv) })
	for _, def := range composites {
		if def.Collection != coll {
			continue
		}
		inOld, inNew := old != nil, new != nil
		same := inOld && inNew
		for _, f := range def.Fields {
			ov, ook := lookup(old, d.old, f.Path)
			nv, nok := lookup(new, d.new, f.Path)
			inOld, inNew = inOld && ook, inNew && nok
			same = same && ook && nok && doc.Equal(ov, nv)
		}
		if inOld && !same {
			d.rem = d.composite(d.rem, def, old, d.old)
		}
		if inNew && !same {
			d.add = d.composite(d.add, def, new, d.new)
		}
	}

	removed, added = cancel(d.rem, d.add)
	removed, added = export(removed), export(added)
	// Drop the references so an idle pool entry pins no document.
	clear(d.old)
	clear(d.new)
	clear(d.rem)
	clear(d.add)
	differs.Put(d)
	return removed, added
}

// cancel sorts both lists by key and drops, in place, duplicates within
// a list and keys present in both.
func cancel(rem, add []Entry) ([]Entry, []Entry) {
	byKey := func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) }
	sameKey := func(a, b Entry) bool { return bytes.Equal(a.Key, b.Key) }
	slices.SortFunc(rem, byKey)
	slices.SortFunc(add, byKey)
	r, a := rem[:0], add[:0] // survivors trail the elements being read
	difference(slices.CompactFunc(rem, sameKey), slices.CompactFunc(add, sameKey), byKey,
		func(e Entry) { r = append(r, e) }, func(e Entry) { a = append(a, e) })
	return r, a
}

// difference walks two sorted, duplicate-free lists in step and reports
// the elements only one of them has.
func difference[T any](a, b []T, cmp func(T, T) int, onlyA, onlyB func(T)) {
	for len(a) > 0 || len(b) > 0 {
		c := -1
		if len(a) == 0 {
			c = 1
		} else if len(b) > 0 {
			c = cmp(a[0], b[0])
		}
		if c <= 0 {
			if c < 0 {
				onlyA(a[0])
			}
			a = a[1:]
		}
		if c >= 0 {
			if c > 0 {
				onlyB(b[0])
			}
			b = b[1:]
		}
	}
}

// export copies scratch entries into a caller-owned list whose
// PrefixEnds share one exact-size backing array.
func export(es []Entry) []Entry {
	if len(es) == 0 {
		return nil
	}
	n := 0
	for _, e := range es {
		n += len(e.PrefixEnds)
	}
	out, ends := make([]Entry, len(es)), make([]int, 0, n)
	for i, e := range es {
		at := len(ends)
		ends = append(ends, e.PrefixEnds...)
		e.PrefixEnds = ends[at:len(ends):len(ends)]
		out[i] = e
	}
	return out
}
