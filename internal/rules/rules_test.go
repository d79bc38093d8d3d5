package rules

import (
	"errors"
	"strings"
	"testing"

	"firestore/internal/doc"
	"firestore/internal/status"
)

// paperRules is Figure 3 from the paper: any authenticated user may read
// ratings or create one carrying their own user ID; updates/deletes are
// not allowed.
const paperRules = `
service cloud.firestore {
  match /databases/{database}/documents {
    match /restaurants/{restaurantId}/ratings/{ratingId} {
      allow read: if request.auth != null;
      allow create: if request.auth != null
                    && request.resource.data.userID == request.auth.uid;
    }
  }
}
`

func mustParse(t *testing.T, src string) *Ruleset {
	t.Helper()
	rs, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return rs
}

func ratingDoc(userID string) *doc.Document {
	return doc.New(doc.MustName("/restaurants/one/ratings/2"), map[string]doc.Value{
		"rating": doc.Int(5),
		"userID": doc.String(userID),
	})
}

func TestPaperFigure3(t *testing.T) {
	rs := mustParse(t, paperRules)
	path := doc.MustName("/restaurants/one/ratings/2")
	alice := &Auth{UID: "alice"}

	// Authenticated read allowed.
	if !rs.Allow(&Request{Method: MethodGet, Path: path, Auth: alice}) {
		t.Error("authenticated read denied")
	}
	// Unauthenticated read denied.
	if rs.Allow(&Request{Method: MethodGet, Path: path}) {
		t.Error("unauthenticated read allowed")
	}
	// Create with own userID allowed.
	if !rs.Allow(&Request{Method: MethodCreate, Path: path, Auth: alice, NewResource: ratingDoc("alice")}) {
		t.Error("create with own uid denied")
	}
	// Create with someone else's userID denied.
	if rs.Allow(&Request{Method: MethodCreate, Path: path, Auth: alice, NewResource: ratingDoc("bob")}) {
		t.Error("create with foreign uid allowed")
	}
	// Updates and deletes are not mentioned: denied.
	if rs.Allow(&Request{Method: MethodUpdate, Path: path, Auth: alice, NewResource: ratingDoc("alice")}) {
		t.Error("update allowed")
	}
	if rs.Allow(&Request{Method: MethodDelete, Path: path, Auth: alice}) {
		t.Error("delete allowed")
	}
	// Other collections entirely denied.
	if rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/users/alice"), Auth: alice}) {
		t.Error("unmatched path allowed")
	}
}

func TestAuthorizeError(t *testing.T) {
	rs := mustParse(t, paperRules)
	err := rs.Authorize(&Request{Method: MethodGet, Path: doc.MustName("/users/alice")})
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("Authorize = %v, want ErrDenied", err)
	}
	if err := rs.Authorize(&Request{Method: MethodGet, Path: doc.MustName("/restaurants/a/ratings/1"), Auth: &Auth{UID: "u"}}); err != nil {
		t.Fatalf("Authorize allowed case = %v", err)
	}
}

func TestWildcardCapture(t *testing.T) {
	rs := mustParse(t, `
match /users/{userId} {
  allow read, write: if request.auth.uid == userId;
}
`)
	own := &Request{Method: MethodGet, Path: doc.MustName("/users/alice"), Auth: &Auth{UID: "alice"}}
	other := &Request{Method: MethodGet, Path: doc.MustName("/users/bob"), Auth: &Auth{UID: "alice"}}
	if !rs.Allow(own) {
		t.Error("own profile read denied")
	}
	if rs.Allow(other) {
		t.Error("foreign profile read allowed")
	}
	// write expansion covers create/update/delete.
	for _, m := range []Method{MethodCreate, MethodUpdate, MethodDelete} {
		if !rs.Allow(&Request{Method: m, Path: doc.MustName("/users/alice"), Auth: &Auth{UID: "alice"}}) {
			t.Errorf("own profile %s denied", m)
		}
	}
}

func TestRestWildcard(t *testing.T) {
	rs := mustParse(t, `
match /public/{rest=**} {
  allow read;
}
`)
	if !rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/public/a")}) {
		t.Error("one-level rest denied")
	}
	if !rs.Allow(&Request{Method: MethodList, Path: doc.MustName("/public/a/b/c")}) {
		t.Error("deep rest denied")
	}
	if rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/private/a")}) {
		t.Error("other tree allowed")
	}
	if rs.Allow(&Request{Method: MethodCreate, Path: doc.MustName("/public/a"), NewResource: ratingDoc("x")}) {
		t.Error("write allowed by read-only rule")
	}
}

func TestGetLookup(t *testing.T) {
	// The §III-E ACL pattern: consult another document during
	// authorization.
	rs := mustParse(t, `
match /projects/{projectId} {
  allow read: if get(/roles/$(request.auth.uid)).data.role == "admin";
  allow create: if exists(/roles/$(request.auth.uid));
}
`)
	docs := map[string]*doc.Document{
		"/roles/alice": doc.New(doc.MustName("/roles/alice"), map[string]doc.Value{"role": doc.String("admin")}),
		"/roles/bob":   doc.New(doc.MustName("/roles/bob"), map[string]doc.Value{"role": doc.String("viewer")}),
	}
	get := func(n doc.Name) (*doc.Document, error) { return docs[n.String()], nil }
	path := doc.MustName("/projects/p1")

	if !rs.Allow(&Request{Method: MethodGet, Path: path, Auth: &Auth{UID: "alice"}, Get: get}) {
		t.Error("admin read denied")
	}
	if rs.Allow(&Request{Method: MethodGet, Path: path, Auth: &Auth{UID: "bob"}, Get: get}) {
		t.Error("viewer read allowed")
	}
	if rs.Allow(&Request{Method: MethodGet, Path: path, Auth: &Auth{UID: "carol"}, Get: get}) {
		t.Error("missing role doc read allowed")
	}
	if !rs.Allow(&Request{Method: MethodCreate, Path: path, Auth: &Auth{UID: "bob"}, Get: get, NewResource: ratingDoc("bob")}) {
		t.Error("exists() create denied")
	}
	if rs.Allow(&Request{Method: MethodCreate, Path: path, Auth: &Auth{UID: "carol"}, Get: get, NewResource: ratingDoc("carol")}) {
		t.Error("exists() create allowed for missing doc")
	}
}

func TestGetBudget(t *testing.T) {
	// A condition performing unbounded get()s is cut off by the budget
	// and denied rather than looping.
	rs := mustParse(t, `
match /a/{id} {
  allow read: if get(/b/x).data.v == 1 && get(/b/x).data.v == 1 && get(/b/x).data.v == 1
              && get(/b/x).data.v == 1 && get(/b/x).data.v == 1 && get(/b/x).data.v == 1
              && get(/b/x).data.v == 1 && get(/b/x).data.v == 1 && get(/b/x).data.v == 1
              && get(/b/x).data.v == 1 && get(/b/x).data.v == 1 && get(/b/x).data.v == 1;
}
`)
	b := doc.New(doc.MustName("/b/x"), map[string]doc.Value{"v": doc.Int(1)})
	get := func(n doc.Name) (*doc.Document, error) { return b, nil }
	if rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/a/1"), Get: get}) {
		t.Error("budget-exceeding condition allowed")
	}
}

func TestOperatorsAndMethods(t *testing.T) {
	rs := mustParse(t, `
match /docs/{id} {
  allow create: if request.resource.data.n >= 1 && request.resource.data.n < 10
                && request.resource.data.tags.size() <= 3
                && request.resource.data.name.size() > 0
                && "x" in request.resource.data.tags
                && request.resource.data.kind in ["a", "b"]
                && request.resource.data.name.startsWith("Dr")
                && request.resource.data.keys().hasAll(["n", "name"])
                && (request.resource.data.n * 2 + 1) % 3 == 1
                && -request.resource.data.neg == 2
                && request.resource.data['owner'] == "u1"
                && !(request.resource.data.n == 99);
}
`)
	mk := func(n int64, owner string) *doc.Document {
		return doc.New(doc.MustName("/docs/d"), map[string]doc.Value{
			"n":     doc.Int(n),
			"name":  doc.String("DrWho"),
			"tags":  doc.Array(doc.String("x"), doc.String("y")),
			"kind":  doc.String("a"),
			"neg":   doc.Int(-2),
			"owner": doc.String(owner),
		})
	}
	req := func(n int64, owner string) *Request {
		return &Request{Method: MethodCreate, Path: doc.MustName("/docs/d"), NewResource: mk(n, owner)}
	}
	if !rs.Allow(req(3, "u1")) {
		t.Error("valid doc denied")
	}
	if rs.Allow(req(0, "u1")) {
		t.Error("n=0 allowed")
	}
	if rs.Allow(req(10, "u1")) {
		t.Error("n=10 allowed")
	}
	// A map index reads the value under its key.
	if rs.Allow(req(3, "u2")) {
		t.Error("data['owner'] == \"u1\" allowed owner u2")
	}
}

func TestConditionErrorsDeny(t *testing.T) {
	rs := mustParse(t, `
match /docs/{id} {
  allow read: if request.resource.data.missing.field == 1;
}
`)
	// request.resource is null for reads: member access errors, which
	// must deny rather than crash or allow.
	if rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/docs/d")}) {
		t.Error("erroring condition allowed")
	}

	// Each refused index denies, though the comparison would hold on a
	// null: a non-string map key, a missing key, an index on a scalar.
	// The "" key is what an int key would name if read as a string.
	existing := doc.New(doc.MustName("/docs/d"), map[string]doc.Value{
		"owner": doc.String("u1"),
		"n":     doc.Int(1),
		"":      doc.String("u2"),
	})
	for _, tc := range []struct {
		cond  string
		allow bool
	}{
		{`resource.data['owner'] == "u1"`, true}, // the control
		{`resource.data[1] != "u1"`, false},
		{`resource.data['nope'] != "u1"`, false},
		{`resource.data.n[0] != "u1"`, false},
	} {
		rs := mustParse(t, "match /docs/{id} { allow read: if "+tc.cond+"; }")
		if got := rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/docs/d"), Resource: existing}); got != tc.allow {
			t.Errorf("%s: allowed = %v, want %v", tc.cond, got, tc.allow)
		}
	}
}

func TestOrAbsorbsErrors(t *testing.T) {
	rs := mustParse(t, `
match /docs/{id} {
  allow read: if request.resource.data.missing == 1 || true;
}
`)
	if !rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/docs/d")}) {
		t.Error("|| should absorb the erroring left operand")
	}
}

func TestNestedMatchBlocks(t *testing.T) {
	rs := mustParse(t, `
match /shops/{shopId} {
  allow read;
  match /items/{itemId} {
    allow read: if shopId == "open";
  }
}
`)
	if !rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/shops/s1")}) {
		t.Error("parent read denied")
	}
	// Parent allows do NOT cascade to children.
	if rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/shops/s1/items/i1")}) {
		t.Error("child inherited parent allow")
	}
	if !rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/shops/open/items/i1")}) {
		t.Error("child with captured parent var denied")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`match {allow read;}`,               // no pattern
		`match /a/{x} { allow frobnicate;}`, // unknown method
		`match /a/{x} { allow read }`,       // missing ;
		`match /a/{x} { allow read: true;}`, // missing if
		`match /a/{x=*} { allow read;}`,     // bad wildcard
		`match /a/{x} { allow read: if (1 + ;}`,
		`match /a/{x} { allow read: if "unterminated;}`,
		`match /a/{x} {`,
		`/* unterminated`,
		`match /a/{x} { allow read: if a ~ b; }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParsePrintParseFixpoint(t *testing.T) {
	srcs := []string{
		paperRules,
		`match /users/{u} { allow read, write: if request.auth.uid == u; }`,
		`match /a/{rest=**} { allow get: if 1 + 2 * 3 == 7 && [1,2].size() == 2; }`,
		`rules_version = '2'; service cloud.firestore { match /databases/{d}/documents { allow read; } }`,
	}
	for _, src := range srcs {
		rs1 := mustParse(t, src)
		printed := rs1.String()
		rs2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\nprinted:\n%s", src, err, printed)
		}
		if rs2.String() != printed {
			t.Errorf("print not a fixpoint:\nfirst:\n%s\nsecond:\n%s", printed, rs2.String())
		}
	}
}

func TestCommentsAndVersions(t *testing.T) {
	rs := mustParse(t, `
// line comment
rules_version = '2';
/* block
   comment */
match /a/{id} {
  allow read; // trailing
}
`)
	if !rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/a/1")}) {
		t.Error("commented ruleset misparsed")
	}
}

func TestTokenClaims(t *testing.T) {
	rs := mustParse(t, `
match /admin/{id} {
  allow read: if request.auth.token.admin == true;
}
`)
	yes := &Auth{UID: "u", Token: map[string]doc.Value{"admin": doc.Bool(true)}}
	no := &Auth{UID: "u", Token: map[string]doc.Value{"admin": doc.Bool(false)}}
	none := &Auth{UID: "u"}
	if !rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/admin/1"), Auth: yes}) {
		t.Error("admin claim denied")
	}
	if rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/admin/1"), Auth: no}) {
		t.Error("non-admin allowed")
	}
	if rs.Allow(&Request{Method: MethodGet, Path: doc.MustName("/admin/1"), Auth: none}) {
		t.Error("claimless allowed")
	}
}

func BenchmarkAllowSimple(b *testing.B) {
	rs, err := Parse(paperRules)
	if err != nil {
		b.Fatal(err)
	}
	req := &Request{
		Method:      MethodCreate,
		Path:        doc.MustName("/restaurants/one/ratings/2"),
		Auth:        &Auth{UID: "alice"},
		NewResource: ratingDoc("alice"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !rs.Allow(req) {
			b.Fatal("denied")
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(paperRules); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNestingCap: match blocks nest up to maxNesting deep, and one more
// level of match blocks, parentheses or '!' is refused. A ruleset whose
// printed form would nest past the cap is refused too, so the printed
// form of every accepted ruleset parses back: a chain of 49 operands
// prints as 48 nested parentheses, which parse at depth 99.
func TestNestingCap(t *testing.T) {
	matches := func(n int) string {
		return strings.Repeat("match /a { ", n) + "allow read; " + strings.Repeat("} ", n)
	}
	cond := func(c string) string { return "match /a { allow read: if " + c + "; }" }
	chain := func(n int) string { return strings.TrimSuffix(strings.Repeat("a || ", n), " || ") }
	for _, src := range []string{matches(maxNesting), cond(chain(49))} {
		rs, err := Parse(src)
		if err != nil {
			t.Fatalf("%.40s...: %v", src, err)
		}
		if again, err := Parse(rs.String()); err != nil || again.String() != rs.String() {
			t.Fatalf("the printed form of %.40s... does not parse back: %v", src, err)
		}
	}
	deep := strings.Repeat("(", maxNesting+1) + "true" + strings.Repeat(")", maxNesting+1)
	for name, src := range map[string]string{
		"match blocks": matches(maxNesting + 1),
		"parentheses":  cond(deep),
		"!":            cond(strings.Repeat("!", maxNesting+1) + "true"),
		"printed":      cond(chain(50)),
	} {
		if _, err := Parse(src); status.CodeOf(err) != status.InvalidArgument {
			t.Errorf("%s past the cap: err = %v, want InvalidArgument", name, err)
		}
	}
}

// TestUnaryUnderPostfix: a unary operand of a member, index or call
// prints in parentheses, so its printed form reads back as the same tree.
func TestUnaryUnderPostfix(t *testing.T) {
	cases := []struct{ src, want string }{
		{`(!a).f`, `(!(a)).f`},
		{`(-a)[1]`, `(-(a))[1]`},
		{`(!a)(b)`, `(!(a))(b)`},
		{`!a.f`, `!(a.f)`},
		{`-a[1]`, `-(a[1])`},
	}
	for _, c := range cases {
		rs := mustParse(t, `match /a { allow read: if `+c.src+`; }`)
		var b strings.Builder
		writeExpr(&b, rs.Matches[0].Allows[0].Cond)
		if got := b.String(); got != c.want {
			t.Errorf("%s printed %q, want %q", c.src, got, c.want)
		}
		if again := mustParse(t, rs.String()); again.String() != rs.String() {
			t.Errorf("%s prints as\n%s\nwhich reads back as\n%s", c.src, rs, again)
		}
	}
}

// TestPostfixChainsCapped: each .f, [i] and (args) link counts against
// maxNesting, so a 1 MiB chain is refused rather than parsed into a tree
// half a million levels deep; the chains real rules write still parse.
func TestPostfixChainsCapped(t *testing.T) {
	cond := func(c string) string { return "match /a { allow read: if " + c + "; }" }
	for _, src := range []string{
		paperRules,
		cond(`get(/databases/$(db)/documents/users/$(request.auth.uid)).data.roles[0].size() > 0`),
		cond("a" + strings.Repeat(".a", 90)),
	} {
		mustParse(t, src)
	}
	for _, link := range []string{".a", "[0]", "()"} {
		src := cond("a" + strings.Repeat(link, (1<<20)/len(link)))
		if _, err := Parse(src); status.CodeOf(err) != status.InvalidArgument {
			t.Errorf("a 1 MiB chain of %s: err = %v, want InvalidArgument", link, err)
		}
	}
}

// TestBinaryPrecedence pins how binary operators group: the printer
// parenthesises every binary expression, so its output shows the tree.
func TestBinaryPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{`a || b && c`, `(a || (b && c))`},
		{`a && b || c`, `((a && b) || c)`},
		{`1 + 2 * 3 == 7`, `((1 + (2 * 3)) == 7)`},
		{`a - b - c`, `((a - b) - c)`},
		{`a / b % c`, `((a / b) % c)`},
		{`x in y == true`, `((x in y) == true)`},
		{`!a && b`, `(!(a) && b)`},
		{`-a * b`, `(-(a) * b)`},
		{`a < b < c`, `((a < b) < c)`},
		{`get(/a/$(b)).data.c / 2`, `(get(/a/$(b)).data.c / 2)`},
	}
	for _, c := range cases {
		rs := mustParse(t, `match /a { allow read: if `+c.src+`; }`)
		var b strings.Builder
		writeExpr(&b, rs.Matches[0].Allows[0].Cond)
		if got := b.String(); got != c.want {
			t.Errorf("%s printed %q, want %q", c.src, got, c.want)
		}
	}
}
