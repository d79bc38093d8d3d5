package doc

import (
	"fmt"
	"strings"

	"firestore/internal/status"
)

// A Name identifies a document: an alternating sequence of collection IDs
// and document IDs, e.g. /restaurants/one/ratings/2 (§III-A). The textual
// form always starts with '/' and has an even number of segments.
type Name struct {
	segs []string
}

// MaxNameLen bounds the encoded length of a document name.
const MaxNameLen = 1500

var (
	// ErrInvalidName reports a malformed document or collection name.
	ErrInvalidName = status.New(status.InvalidArgument, "doc", "invalid name")
)

// ParseName parses a textual document name like /restaurants/one.
func ParseName(s string) (Name, error) {
	segs, err := parseSegments(s)
	if err != nil {
		return Name{}, err
	}
	if len(segs)%2 != 0 || len(segs) == 0 {
		return Name{}, fmt.Errorf("%w: %q is not a document path (needs an even number of segments)", ErrInvalidName, s)
	}
	return Name{segs: segs}, nil
}

// MustName is ParseName that panics on error, for tests and constants.
func MustName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

func parseSegments(s string) ([]string, error) {
	if len(s) == 0 || s[0] != '/' {
		return nil, fmt.Errorf("%w: %q must start with '/'", ErrInvalidName, s)
	}
	if len(s) > MaxNameLen {
		return nil, fmt.Errorf("%w: %q exceeds %d bytes", ErrInvalidName, s, MaxNameLen)
	}
	segs := make([]string, 0, strings.Count(s, "/"))
	for rest, more := s[1:], true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if seg == "" {
			return nil, fmt.Errorf("%w: %q has an empty segment", ErrInvalidName, s)
		}
		if seg == "." || seg == ".." {
			return nil, fmt.Errorf("%w: segment %q is reserved", ErrInvalidName, seg)
		}
		if strings.IndexByte(seg, 0) >= 0 {
			return nil, fmt.Errorf("%w: segment contains NUL", ErrInvalidName)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// IsZero reports whether n is the zero Name.
func (n Name) IsZero() bool { return len(n.segs) == 0 }

// String returns the canonical textual form.
func (n Name) String() string {
	if n.IsZero() {
		return ""
	}
	return "/" + strings.Join(n.segs, "/")
}

// textLen is len(n.String()) without building the string.
func (n Name) textLen() int {
	size := 0
	for _, seg := range n.segs {
		size += 1 + len(seg)
	}
	return size
}

// matches reports whether text is n's textual form, without building it.
func (n Name) matches(text []byte) bool {
	for _, seg := range n.segs {
		if len(text) <= len(seg) || text[0] != '/' || string(text[1:1+len(seg)]) != seg {
			return false
		}
		text = text[1+len(seg):]
	}
	return len(text) == 0
}

// ID returns the final segment (the document's identifying string).
func (n Name) ID() string {
	if n.IsZero() {
		return ""
	}
	return n.segs[len(n.segs)-1]
}

// Collection returns the path of the collection containing this document.
func (n Name) Collection() CollectionPath {
	if n.IsZero() {
		return CollectionPath{}
	}
	return CollectionPath{segs: n.segs[:len(n.segs)-1]}
}

// Parent returns the parent document for a sub-collection document, and
// false for a top-level document.
func (n Name) Parent() (Name, bool) {
	if len(n.segs) < 4 {
		return Name{}, false
	}
	return Name{segs: n.segs[:len(n.segs)-2]}, true
}

// Depth returns the nesting depth in documents (1 for /coll/id).
func (n Name) Depth() int { return len(n.segs) / 2 }

// Segments returns the raw segments (collection, id, collection, id, ...).
// The returned slice must not be modified.
func (n Name) Segments() []string { return n.segs }

// Compare orders names lexicographically segment by segment.
func (n Name) Compare(o Name) int {
	a, b := n.segs, o.segs
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(len(a), len(b))
}

// Child returns the name of a document in a sub-collection of n.
func (n Name) Child(collection, id string) (Name, error) {
	if collection == "" || id == "" {
		return Name{}, fmt.Errorf("%w: empty segment", ErrInvalidName)
	}
	segs := make([]string, 0, len(n.segs)+2)
	segs = append(segs, n.segs...)
	segs = append(segs, collection, id)
	return Name{segs: segs}, nil
}

// A CollectionPath identifies a collection: an odd number of segments,
// e.g. /restaurants or /restaurants/one/ratings.
type CollectionPath struct {
	segs []string
}

// ParseCollection parses a textual collection path.
func ParseCollection(s string) (CollectionPath, error) {
	segs, err := parseSegments(s)
	if err != nil {
		return CollectionPath{}, err
	}
	if len(segs)%2 != 1 {
		return CollectionPath{}, fmt.Errorf("%w: %q is not a collection path (needs an odd number of segments)", ErrInvalidName, s)
	}
	return CollectionPath{segs: segs}, nil
}

// MustCollection is ParseCollection that panics on error.
func MustCollection(s string) CollectionPath {
	c, err := ParseCollection(s)
	if err != nil {
		panic(err)
	}
	return c
}

// IsZero reports whether c is the zero CollectionPath.
func (c CollectionPath) IsZero() bool { return len(c.segs) == 0 }

// String returns the canonical textual form.
func (c CollectionPath) String() string {
	if c.IsZero() {
		return ""
	}
	return "/" + strings.Join(c.segs, "/")
}

// ID returns the collection's own ID (final segment).
func (c CollectionPath) ID() string {
	if c.IsZero() {
		return ""
	}
	return c.segs[len(c.segs)-1]
}

// Doc returns the name of the document with the given ID in c.
func (c CollectionPath) Doc(id string) (Name, error) {
	if id == "" || strings.Contains(id, "/") {
		return Name{}, fmt.Errorf("%w: bad document ID %q", ErrInvalidName, id)
	}
	segs := make([]string, 0, len(c.segs)+1)
	segs = append(segs, c.segs...)
	segs = append(segs, id)
	return Name{segs: segs}, nil
}

// Contains reports whether name is a direct member of collection c (not of
// a nested sub-collection).
func (c CollectionPath) Contains(name Name) bool {
	if len(name.segs) != len(c.segs)+1 {
		return false
	}
	for i, seg := range c.segs {
		if name.segs[i] != seg {
			return false
		}
	}
	return true
}

// Segments returns the raw segments. The returned slice must not be
// modified.
func (c CollectionPath) Segments() []string { return c.segs }
