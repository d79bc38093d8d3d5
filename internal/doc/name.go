package doc

import (
	"fmt"
	"strings"

	"firestore/internal/status"
)

// A Name identifies a document: an alternating sequence of collection IDs
// and document IDs, e.g. /restaurants/one/ratings/2 (§III-A). The textual
// form always starts with '/' and has an even number of segments.
//
// A Name is its canonical text, one string: parsing validates it without
// allocating, and every accessor slices or walks it (DESIGN.md "Read
// path: who owns the bytes").
type Name struct {
	text string
}

// MaxNameLen bounds the encoded length of a document name.
const MaxNameLen = 1500

var (
	// ErrInvalidName reports a malformed document or collection name.
	ErrInvalidName = status.New(status.InvalidArgument, "doc", "invalid name")
)

// ParseName parses a textual document name like /restaurants/one.
func ParseName(s string) (Name, error) {
	n, err := countSegments(s)
	if err != nil {
		return Name{}, err
	}
	if n%2 != 0 {
		return Name{}, fmt.Errorf("%w: %q is not a document path (needs an even number of segments)", ErrInvalidName, s)
	}
	return Name{text: s}, nil
}

// MustName is ParseName that panics on error, for tests and constants.
func MustName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// countSegments validates s as a path and returns its number of segments.
func countSegments(s string) (int, error) {
	if len(s) == 0 || s[0] != '/' {
		return 0, fmt.Errorf("%w: %q must start with '/'", ErrInvalidName, s)
	}
	if len(s) > MaxNameLen {
		return 0, fmt.Errorf("%w: %q exceeds %d bytes", ErrInvalidName, s, MaxNameLen)
	}
	n := 0
	for rest, more := s[1:], true; more; n++ {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if seg == "" {
			return 0, fmt.Errorf("%w: %q has an empty segment", ErrInvalidName, s)
		}
		if seg == "." || seg == ".." {
			return 0, fmt.Errorf("%w: segment %q is reserved", ErrInvalidName, seg)
		}
		if strings.IndexByte(seg, 0) >= 0 {
			return 0, fmt.Errorf("%w: segment contains NUL", ErrInvalidName)
		}
	}
	return n, nil
}

// IsZero reports whether n is the zero Name.
func (n Name) IsZero() bool { return n.text == "" }

// String returns the canonical textual form.
func (n Name) String() string { return n.text }

// ID returns the final segment (the document's identifying string).
func (n Name) ID() string { return n.text[strings.LastIndexByte(n.text, '/')+1:] }

// Collection returns the path of the collection containing this document.
func (n Name) Collection() CollectionPath {
	return CollectionPath{text: n.text[:max(strings.LastIndexByte(n.text, '/'), 0)]}
}

// Parent returns the parent document for a sub-collection document, and
// false for a top-level document.
func (n Name) Parent() (Name, bool) {
	c := n.Collection().text
	i := strings.LastIndexByte(c, '/')
	if i <= 0 {
		return Name{}, false
	}
	return Name{text: c[:i]}, true
}

// Depth returns the nesting depth in documents (1 for /coll/id).
func (n Name) Depth() int { return strings.Count(n.text, "/") / 2 }

// First returns the first segment: the top-level collection's ID.
func (n Name) First() string { return first(n.text) }

// Segments returns the segments (collection, id, collection, id, ...). It
// allocates the slice; only the rules matcher, which binds segments to
// pattern variables, needs them.
func (n Name) Segments() []string {
	if n.IsZero() {
		return nil
	}
	return strings.Split(n.text[1:], "/")
}

// Compare orders names lexicographically segment by segment. That is
// byte order of the text except where one segment ends inside the other:
// the shorter segment sorts first even though '/' sorts above '-' and '.'.
func (n Name) Compare(o Name) int {
	a, b := n.text, o.text
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	switch {
	case i == len(a) && i == len(b):
		return 0
	case i == len(a):
		return -1
	case i == len(b):
		return 1
	case a[i] == '/':
		return -1
	case b[i] == '/':
		return 1
	case a[i] < b[i]:
		return -1
	}
	return 1
}

// Child returns the name of a document in a sub-collection of n.
func (n Name) Child(collection, id string) (Name, error) {
	if collection == "" || id == "" || strings.Contains(collection, "/") || strings.Contains(id, "/") {
		return Name{}, fmt.Errorf("%w: bad segment in %q, %q", ErrInvalidName, collection, id)
	}
	return Name{text: n.text + "/" + collection + "/" + id}, nil
}

// A CollectionPath identifies a collection: an odd number of segments,
// e.g. /restaurants or /restaurants/one/ratings. Like a Name, it is its
// text.
type CollectionPath struct {
	text string
}

// ParseCollection parses a textual collection path.
func ParseCollection(s string) (CollectionPath, error) {
	n, err := countSegments(s)
	if err != nil {
		return CollectionPath{}, err
	}
	if n%2 != 1 {
		return CollectionPath{}, fmt.Errorf("%w: %q is not a collection path (needs an odd number of segments)", ErrInvalidName, s)
	}
	return CollectionPath{text: s}, nil
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
func (c CollectionPath) IsZero() bool { return c.text == "" }

// String returns the canonical textual form.
func (c CollectionPath) String() string { return c.text }

// ID returns the collection's own ID (final segment).
func (c CollectionPath) ID() string { return c.text[strings.LastIndexByte(c.text, '/')+1:] }

// First returns the first segment: the top-level collection's ID.
func (c CollectionPath) First() string { return first(c.text) }

// Doc returns the name of the document with the given ID in c.
func (c CollectionPath) Doc(id string) (Name, error) {
	if id == "" || strings.Contains(id, "/") {
		return Name{}, fmt.Errorf("%w: bad document ID %q", ErrInvalidName, id)
	}
	return Name{text: c.text + "/" + id}, nil
}

// Contains reports whether name is a direct member of collection c (not of
// a nested sub-collection).
func (c CollectionPath) Contains(name Name) bool {
	rest, ok := strings.CutPrefix(name.text, c.text)
	return ok && !c.IsZero() && len(rest) > 1 && rest[0] == '/' && strings.IndexByte(rest[1:], '/') < 0
}

func first(text string) string {
	if text == "" {
		return ""
	}
	s, _, _ := strings.Cut(text[1:], "/")
	return s
}
