package rules

import (
	"testing"

	"firestore/internal/doc"
)

// FuzzParse: rules source comes from outside the process (set-rules).
// Parsing any input must not panic, and a ruleset that parses must print
// to source that parses back to the same print.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		paperRules,
		`match /users/{u} { allow read, write: if request.auth.uid == u; }`,
		`match /a/{rest=**} { allow get: if 1 + 2 * 3 == 7 && [1,2].size() == 2; }`,
		`rules_version = '2'; service cloud.firestore { match /databases/{d}/documents { allow read; } }`,
		"match/{A}{allow read:if\"\xcf\";}",
		`match /a/{id} { allow read: if exists(/databases/$(d)/documents/b/$(id)) && 1.5 > 0.25; }`,
		`match /a { allow read: if 100000000000000000000000.0 > 0.0000001; }`,
		`match /a { allow read: if exists(/a/$("x y")/$("")/$("1.5")); }`,
		`match /a { allow read: if (!a).f; }`,
		`match /a { allow read: if (-a)[1]; }`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rs, err := Parse(src)
		if err != nil {
			return
		}
		printed := rs.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\nprinted:\n%s", src, err, printed)
		}
		if again.String() != printed {
			t.Fatalf("print of %q not a fixpoint:\nfirst:\n%s\nsecond:\n%s", src, printed, again.String())
		}
	})
}

// FuzzEval evaluates fuzzed rules against fuzzed request and resource
// values. No panic may escape Allow, and every allow statement decides
// alone exactly as its condition evaluates: it grants only a condition
// that yields true, so an evaluation error denies.
func FuzzEval(f *testing.F) {
	for _, src := range []string{
		paperRules,
		`match /c/{id} { allow read: if request.auth.uid == resource.data.s && resource.data.n > 3; }`,
		`match /c/{id} { allow write: if request.resource.data.n / (resource.data.n - resource.data.n) > 0 || id.size() > 2; }`,
		`match /c/{id} { allow get: if get(/c/$(id)).data.l[1] == resource.data.s && exists(/err/$(id)); }`,
		`match /{rest=**} { allow read, write: if resource.data.m.keys().hasAll(['s']) && -resource.data.f < 1.5 % 2; }`,
		`match /c/{id} { allow list: if resource.data.s.startsWith(request.auth.token.n) || resource.data.l[9] in [1]; }`,
	} {
		f.Add(src, "u1", int64(4), 2.5, "u1", uint8(0), true)
	}
	f.Fuzz(func(t *testing.T, src, uid string, n int64, x float64, s string, method uint8, authed bool) {
		rs, err := Parse(src)
		if err != nil {
			return
		}
		name, err := doc.ParseName("/c/" + s)
		if err != nil {
			name = doc.MustName("/c/x")
		}
		fields := func(n int64) map[string]doc.Value {
			return map[string]doc.Value{
				"n": doc.Int(n), "f": doc.Double(x), "s": doc.String(s),
				"l": doc.Array(doc.Int(n), doc.String(s)), "m": doc.Map(map[string]doc.Value{"s": doc.String(s)}),
			}
		}
		req := &Request{
			Method:      []Method{MethodGet, MethodList, MethodCreate, MethodUpdate, MethodDelete}[method%5],
			Path:        name,
			Resource:    doc.New(name, fields(n)),
			NewResource: doc.New(name, fields(n+1)),
			Get: func(got doc.Name) (*doc.Document, error) {
				switch got.First() {
				case "c":
					return doc.New(got, fields(n)), nil
				case "err":
					return nil, ErrDenied
				}
				return nil, nil
			},
		}
		if authed {
			req.Auth = &Auth{UID: uid, Token: map[string]doc.Value{"n": doc.Int(n)}}
		}
		rs.Allow(req)
		// Each allow statement alone, on a block matching the path
		// literally, so its condition sees no captures.
		var pattern []Segment
		for _, seg := range name.Segments() {
			pattern = append(pattern, Segment{Text: seg})
		}
		var check func(blocks []*MatchBlock)
		check = func(blocks []*MatchBlock) {
			for _, m := range blocks {
				for _, a := range m.Allows {
					if a.Cond == nil {
						continue
					}
					budget := evalBudget
					v, err := (&env{req: req, captures: map[string]doc.Value{}, budget: &budget}).eval(a.Cond)
					holds := err == nil && v.Kind() == doc.KindBool && v.BoolVal()
					alone := &Ruleset{Matches: []*MatchBlock{{Pattern: pattern, Allows: []*Allow{{Methods: []Method{req.Method}, Cond: a.Cond}}}}}
					if granted := alone.Allow(req); granted != holds {
						t.Fatalf("condition %v evaluates to %v, %v, and alone grants %v", a.Cond, v, err, granted)
					}
				}
				check(m.Children)
			}
		}
		check(rs.Matches)
	})
}
