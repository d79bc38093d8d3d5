package rules

import "testing"

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
