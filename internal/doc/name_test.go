package doc

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseName(t *testing.T) {
	n, err := ParseName("/restaurants/one/ratings/2")
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "/restaurants/one/ratings/2" {
		t.Errorf("String = %q", n.String())
	}
	if n.ID() != "2" {
		t.Errorf("ID = %q", n.ID())
	}
	if n.Depth() != 2 {
		t.Errorf("Depth = %d", n.Depth())
	}
	if got := n.Collection().String(); got != "/restaurants/one/ratings" {
		t.Errorf("Collection = %q", got)
	}
	p, ok := n.Parent()
	if !ok || p.String() != "/restaurants/one" {
		t.Errorf("Parent = %q, %v", p, ok)
	}
	if _, ok := p.Parent(); ok {
		t.Error("top-level document should have no parent")
	}
}

func TestParseNameErrors(t *testing.T) {
	bad := []string{
		"",                                     // empty
		"restaurants/one",                      // no leading slash
		"/restaurants",                         // collection path, not doc
		"/a/b/c",                               // odd segments
		"//x",                                  // empty segment
		"/a//b",                                // empty segment
		"/a/.",                                 // reserved
		"/a/..",                                // reserved
		"/a/" + "x\x00y",                       // NUL
		"/" + strings.Repeat("a/", MaxNameLen), // too long
	}
	for _, s := range bad {
		if _, err := ParseName(s); err == nil {
			t.Errorf("ParseName(%q) succeeded, want error", s)
		}
	}
}

func TestParseCollection(t *testing.T) {
	c, err := ParseCollection("/restaurants/one/ratings")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != "ratings" {
		t.Errorf("ID = %q", c.ID())
	}
	if _, err := ParseCollection("/a/b"); err == nil {
		t.Error("even-segment collection parsed")
	}
	d, err := c.Doc("7")
	if err != nil || d.String() != "/restaurants/one/ratings/7" {
		t.Errorf("Doc = %q, %v", d, err)
	}
	if _, err := c.Doc(""); err == nil {
		t.Error("empty doc ID accepted")
	}
	if _, err := c.Doc("a/b"); err == nil {
		t.Error("doc ID with slash accepted")
	}
}

func TestCollectionContains(t *testing.T) {
	c := MustCollection("/restaurants")
	if !c.Contains(MustName("/restaurants/one")) {
		t.Error("direct member not contained")
	}
	if c.Contains(MustName("/restaurants/one/ratings/2")) {
		t.Error("nested doc should not be contained")
	}
	if c.Contains(MustName("/reviews/one")) {
		t.Error("other collection contained")
	}
	sub := MustCollection("/restaurants/one/ratings")
	if !sub.Contains(MustName("/restaurants/one/ratings/2")) {
		t.Error("sub-collection member not contained")
	}
	if sub.Contains(MustName("/restaurants/two/ratings/2")) {
		t.Error("wrong parent contained")
	}
}

func TestNameCompare(t *testing.T) {
	names := []string{
		"/a/a",
		"/a/a/b/a",
		"/a/b",
		"/b/a",
	}
	for i := range names {
		for j := range names {
			got := MustName(names[i]).Compare(MustName(names[j]))
			if want := cmpInt(i, j); got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d", names[i], names[j], got, want)
			}
		}
	}
}

func TestNameChild(t *testing.T) {
	n := MustName("/restaurants/one")
	c, err := n.Child("ratings", "5")
	if err != nil || c.String() != "/restaurants/one/ratings/5" {
		t.Fatalf("Child = %q, %v", c, err)
	}
	if _, err := n.Child("", "x"); err == nil {
		t.Error("empty collection accepted")
	}
	if _, err := n.Child("a/b", "x"); err == nil {
		t.Error("collection ID with slash accepted")
	}
}

func TestZeroName(t *testing.T) {
	var n Name
	if !n.IsZero() || n.String() != "" || n.ID() != "" {
		t.Error("zero Name misbehaves")
	}
	var c CollectionPath
	if !c.IsZero() || c.String() != "" {
		t.Error("zero CollectionPath misbehaves")
	}
	if !n.Collection().IsZero() {
		t.Error("zero name collection should be zero")
	}
}

func TestMustNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustName should panic on bad input")
		}
	}()
	MustName("bad")
}

// parentParse is the segment-slice parser names had before a Name became
// its text, kept as the reference ParseName and ParseCollection must
// agree with: the number of segments, or an error.
func parentParse(s string) (int, bool) {
	if len(s) == 0 || s[0] != '/' || len(s) > MaxNameLen {
		return 0, false
	}
	n := 0
	for rest, more := s[1:], true; more; n++ {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if seg == "" || seg == "." || seg == ".." || strings.IndexByte(seg, 0) >= 0 {
			return 0, false
		}
	}
	return n, true
}

// TestParseMatchesParent: ParseName and ParseCollection accept and reject
// exactly what the segment parser did, and what they accept round-trips
// through String, Segments and (for a name) Collection and ID.
func TestParseMatchesParent(t *testing.T) {
	cases := []string{
		"", "/", "//", "a/b", "/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a//b", "/a/b/", "//a/b",
		"/.", "/a/.", "/a/..", "/./b", "/../b", "/a/...", "/a/.b", "/a/b\x00", "/\x00/b",
		"/a/" + strings.Repeat("x", MaxNameLen-3), "/a/" + strings.Repeat("x", MaxNameLen-2),
	}
	r := rand.New(rand.NewSource(1))
	alphabet := []string{"/", "/", "a", "b", ".", "-", "\x00", "é"}
	for range 5000 {
		var b strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		segs, ok := parentParse(s)
		n, err := ParseName(s)
		if want := ok && segs%2 == 0; (err == nil) != want {
			t.Errorf("ParseName(%q) = %v, want accepted %v", s, err, want)
		} else if err == nil && (n.String() != s || len(n.Segments()) != segs || n.Collection().String()+"/"+n.ID() != s || n.Depth() != segs/2) {
			t.Errorf("ParseName(%q) = %q: segments %q, collection %q, ID %q", s, n, n.Segments(), n.Collection(), n.ID())
		}
		c, err := ParseCollection(s)
		if want := ok && segs%2 == 1; (err == nil) != want {
			t.Errorf("ParseCollection(%q) = %v, want accepted %v", s, err, want)
		} else if err == nil && (c.String() != s || c.First() != strings.Split(s, "/")[1] || c.ID() != s[strings.LastIndex(s, "/")+1:]) {
			t.Errorf("ParseCollection(%q) = %q: first %q, ID %q", s, c, c.First(), c.ID())
		}
	}
}

// TestParseNameAllocs: parsing a name, and reading its parts, allocates
// nothing.
func TestParseNameAllocs(t *testing.T) {
	s := "/restaurants/one/ratings/2"
	got := testing.AllocsPerRun(100, func() {
		n, err := ParseName(s)
		if err != nil || n.ID() != "2" || n.First() != "restaurants" || n.Depth() != 2 || !n.Collection().Contains(n) {
			t.Fatalf("ParseName(%q) = %v, %v", s, n, err)
		}
		if p, ok := n.Parent(); !ok || p.Compare(n) >= 0 {
			t.Fatalf("Parent(%q) = %v, %v", s, p, ok)
		}
	})
	if got != 0 {
		t.Errorf("ParseName and its accessors allocate %.0f times, want 0", got)
	}
}
