package doc

import (
	"fmt"
	"sort"
	"strings"

	"firestore/internal/status"
	"firestore/internal/truetime"
)

// MaxDocSize is the maximum encoded size of a document: 1 MiB (§III-A).
const MaxDocSize = 1 << 20

// ErrTooLarge reports a document exceeding MaxDocSize.
var ErrTooLarge = status.New(status.InvalidArgument, "doc", "document exceeds 1MiB")

// A Document is a named set of fields with an update timestamp. Documents
// are immutable once constructed; updates build new Documents.
type Document struct {
	Name Name
	// Fields maps top-level field names to values. Nested values live
	// inside map values; field paths use dots (a.b.c).
	Fields map[string]Value
	// UpdateTime is the Spanner commit timestamp of the write that
	// produced this version.
	UpdateTime truetime.Timestamp
	// CreateTime is the commit timestamp of the insert.
	CreateTime truetime.Timestamp
}

// New constructs a document, deep-copying fields.
func New(name Name, fields map[string]Value) *Document {
	d := &Document{Name: name, Fields: make(map[string]Value, len(fields))}
	for k, v := range fields {
		d.Fields[k] = v.Clone()
	}
	return d
}

// Clone returns a deep copy of d.
func (d *Document) Clone() *Document {
	c := New(d.Name, d.Fields)
	c.UpdateTime, c.CreateTime = d.UpdateTime, d.CreateTime
	return c
}

// Size estimates the stored size in bytes (name + fields).
func (d *Document) Size() int {
	n := len(d.Name.text)
	for k, v := range d.Fields {
		n += len(k) + 1 + v.EstimateSize()
	}
	return n
}

// CheckSize returns ErrTooLarge if the document exceeds MaxDocSize.
func (d *Document) CheckSize() error {
	if d.Size() > MaxDocSize {
		return fmt.Errorf("%w: %s is %d bytes", ErrTooLarge, d.Name, d.Size())
	}
	return nil
}

// Errors of a field value that a stored document may not hold.
var (
	ErrDottedName = status.New(status.InvalidArgument, "doc", "field name contains a dot")
	ErrTooDeep    = status.Errorf(status.InvalidArgument, "doc", "value nested more than %d deep", maxValueDepth)
	ErrTimeRange  = status.New(status.InvalidArgument, "doc", "timestamp outside years 0001-9999")
)

// CheckFieldNames refuses fields a stored document may not hold, so that
// every write the service acknowledges reads back: a top-level name or a
// key of a nested map that holds a dot (a field path reads a dot as a
// step into a map, so such a name would be indexed at the path of
// another field), a value nested deeper than UnmarshalNamed decodes, and
// a timestamp outside years 0001-9999 UTC. It allocates only to refuse.
func CheckFieldNames(fields map[string]Value) error { return checkMap(fields, 0) }

// checkMap checks the entries of a map whose values sit at depth.
func checkMap(m map[string]Value, depth int) error {
	for k, v := range m {
		if strings.IndexByte(k, '.') >= 0 {
			return fmt.Errorf("%w: %q", ErrDottedName, k)
		}
		if err := checkValue(v, depth); err != nil {
			return err
		}
	}
	return nil
}

// checkValue checks v, at depth as UnmarshalNamed counts it (a field's
// value is at 0, an element or map value one below its container).
func checkValue(v Value, depth int) error {
	if depth > maxValueDepth {
		return ErrTooDeep
	}
	switch v.Kind() {
	case KindTimestamp:
		if y := v.TimeVal().Year(); y < 1 || y > 9999 {
			return fmt.Errorf("%w: year %d", ErrTimeRange, y)
		}
	case KindArray:
		for _, e := range v.ArrayVal() {
			if err := checkValue(e, depth+1); err != nil {
				return err
			}
		}
	case KindMap:
		return checkMap(v.MapVal(), depth+1)
	}
	return nil
}

// A FieldPath addresses a (possibly nested) field, e.g. "avgRating" or
// "address.city". Path components are dot-separated.
type FieldPath string

// Get returns the value at field path p, or (Null, false) if any component
// is missing or a non-map is traversed.
func (d *Document) Get(p FieldPath) (Value, bool) {
	m := d.Fields
	for {
		head, rest, dotted := strings.Cut(string(p), ".")
		v, ok := m[head]
		if !ok || !dotted {
			return v, ok
		}
		if m = v.MapVal(); m == nil {
			return Null(), false
		}
		p = FieldPath(rest)
	}
}

// Set returns a copy of d with the value at field path p replaced,
// creating intermediate maps as needed. Setting through a non-map value
// replaces it with a map.
func (d *Document) Set(p FieldPath, v Value) *Document {
	c := d.Clone()
	SetPath(c.Fields, p, v.Clone())
	return c
}

// SetPath stores v at field path p under m, creating intermediate maps
// as needed and replacing a non-map value on the way with a map. v is
// stored as it is, not cloned.
func SetPath(m map[string]Value, p FieldPath, v Value) {
	for {
		head, rest, dotted := strings.Cut(string(p), ".")
		if !dotted {
			m[head] = v
			return
		}
		child := m[head].MapVal()
		if child == nil {
			child = map[string]Value{}
			m[head] = Map(child)
		}
		m, p = child, FieldPath(rest)
	}
}

// DeleteField returns a copy of d with the field at p removed. Removing a
// missing field is a no-op.
func (d *Document) DeleteField(p FieldPath) *Document {
	c := d.Clone()
	m := c.Fields
	for {
		head, rest, dotted := strings.Cut(string(p), ".")
		if !dotted {
			delete(m, head)
			return c
		}
		if m = m[head].MapVal(); m == nil {
			return c
		}
		p = FieldPath(rest)
	}
}

// FieldNames returns the sorted top-level field names.
func (d *Document) FieldNames() []string {
	names := make([]string, 0, len(d.Fields))
	for k := range d.Fields {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Equal reports whether two documents have the same name and fields
// (timestamps are ignored).
func (d *Document) Equal(o *Document) bool {
	if d == nil || o == nil {
		return d == o
	}
	if d.Name.Compare(o.Name) != 0 || len(d.Fields) != len(o.Fields) {
		return false
	}
	for k, v := range d.Fields {
		ov, ok := o.Fields[k]
		if !ok || !Equal(v, ov) {
			return false
		}
	}
	return true
}

// String renders the document for debugging.
func (d *Document) String() string {
	var b strings.Builder
	b.WriteString(d.Name.String())
	b.WriteString(" {")
	for i, k := range d.FieldNames() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", k, d.Fields[k])
	}
	b.WriteString("}")
	return b.String()
}
