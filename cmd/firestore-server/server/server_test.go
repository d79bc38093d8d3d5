package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/truetime"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	region := core.NewRegion(core.Config{Name: "test"})
	t.Cleanup(region.Close)
	ts := httptest.NewServer(New(region))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, ts *httptest.Server, method, path string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rdr *bytes.Reader
	switch b := body.(type) {
	case nil:
		rdr = bytes.NewReader(nil)
	case string:
		rdr = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Privileged", "true")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestCRUDOverHTTP(t *testing.T) {
	ts := newServer(t)
	resp, body := do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("create db: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, "PUT", "/v1/databases/app/docs/restaurants/one", map[string]any{
		"name":      "Burger Garden",
		"avgRating": 4.5,
		"count":     7,
		"opened":    map[string]any{"$time": "2020-01-02T03:04:05Z"},
		"photo":     map[string]any{"$bytes": "AQID"},
		"loc":       map[string]any{"$geo": []any{37.7, -122.4}},
	}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, "GET", "/v1/databases/app/docs/restaurants/one", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get: %d %s", resp.StatusCode, body)
	}
	var got struct {
		Fields map[string]any `json:"fields"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Fields["name"] != "Burger Garden" || got.Fields["count"] != float64(7) {
		t.Fatalf("fields = %v", got.Fields)
	}
	if tm := got.Fields["opened"].(map[string]any)["$time"]; !strings.HasPrefix(tm.(string), "2020-01-02") {
		t.Fatalf("time round trip = %v", tm)
	}
	resp, _ = do(t, ts, "DELETE", "/v1/databases/app/docs/restaurants/one", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatal("delete failed")
	}
	resp, _ = do(t, ts, "GET", "/v1/databases/app/docs/restaurants/one", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted = %d", resp.StatusCode)
	}
}

func TestQueryOverHTTP(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for i := 0; i < 10; i++ {
		city := "SF"
		if i%2 == 0 {
			city = "NY"
		}
		do(t, ts, "PUT", fmt.Sprintf("/v1/databases/app/docs/restaurants/r%d", i), map[string]any{
			"city": city, "rating": i,
		}, nil)
	}
	// A filtered+sorted query needs a composite index first: the engine
	// reports 424 with creation guidance (the paper's console link).
	resp, body := do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection": "/restaurants",
		"where":      []map[string]any{{"field": "city", "op": "==", "value": "SF"}},
		"orderBy":    []map[string]any{{"field": "rating", "desc": true}},
		"limit":      3,
	}, nil)
	if resp.StatusCode != http.StatusFailedDependency {
		t.Fatalf("needs-index = %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, "POST", "/v1/databases/app/indexes", map[string]any{
		"collection": "restaurants",
		"fields": []map[string]any{
			{"path": "city"}, {"path": "rating", "desc": true},
		},
	}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("add index: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection": "/restaurants",
		"where":      []map[string]any{{"field": "city", "op": "==", "value": "SF"}},
		"orderBy":    []map[string]any{{"field": "rating", "desc": true}},
		"limit":      3,
	}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Documents []struct {
			Name   string         `json:"name"`
			Fields map[string]any `json:"fields"`
		} `json:"documents"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Documents) != 3 || out.Documents[0].Name != "/restaurants/r9" {
		t.Fatalf("query result = %+v", out.Documents)
	}
}

// TestQueryPagesOverHTTP pages a result of one and a half pages: the
// first page holds 1000 documents and a next token, the page it names the
// other 500 and none.
func TestQueryPagesOverHTTP(t *testing.T) {
	region := core.NewRegion(core.Config{Name: "test"})
	t.Cleanup(region.Close)
	ts := httptest.NewServer(New(region))
	t.Cleanup(ts.Close)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for lo := 0; lo < 1500; lo += 250 {
		var ops []backend.WriteOp
		for i := lo; i < lo+250; i++ {
			ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/items/%04d", i)), Fields: map[string]doc.Value{}})
		}
		if _, err := region.Backend.Commit(context.Background(), "app", backend.Principal{Privileged: true}, ops); err != nil {
			t.Fatal(err)
		}
	}
	query := func(body map[string]any, token []byte) (*http.Response, []byte) {
		body["pageToken"] = token
		return do(t, ts, "POST", "/v1/databases/app/query", body, nil)
	}
	// follow pages through a query, three pages at most, and returns
	// them with their sizes.
	follow := func(body map[string]any) ([]QueryPage, string) {
		var pages []QueryPage
		var sizes []int
		for token := []byte(nil); len(pages) == 0 || token != nil && len(pages) < 3; {
			resp, raw := query(body, token)
			var page QueryPage
			if err := json.Unmarshal(raw, &page); resp.StatusCode != 200 || err != nil {
				t.Fatalf("%v, page %d: %d %s", body, len(pages), resp.StatusCode, raw)
			}
			pages, token = append(pages, page), page.Next
			sizes = append(sizes, len(page.Documents))
		}
		return pages, fmt.Sprint(sizes)
	}
	pages, sizes := follow(map[string]any{"collection": "/items"})
	if sizes != "[1000 500]" || pages[1].Documents[0].Name != "/items/1000" {
		t.Fatalf("pages of %v documents, want [1000 500] in name order", sizes)
	}
	if pages[0].ReadTime != pages[1].ReadTime {
		t.Fatalf("pages read at %d and %d, want one readTime", pages[0].ReadTime, pages[1].ReadTime)
	}
	// The token carries what remains of the limit.
	if limited, sizes := follow(map[string]any{"collection": "/items", "limit": 1200}); sizes != "[1000 200]" || limited[1].Next != nil {
		t.Fatalf("limit 1200: pages of %v documents, next %q; want [1000 200] and no next", sizes, limited[1].Next)
	}
	// A token cut short, or one reading at a future timestamp (the token
	// leads with its read timestamp, a uvarint), is malformed.
	token := pages[0].Next
	_, n := binary.Uvarint(token)
	future := append(binary.AppendUvarint(nil, uint64(pages[0].ReadTime)+uint64(time.Hour)), token[n:]...)
	for name, bad := range map[string][]byte{"truncated": token[:len(token)-1], "future": future} {
		if resp, raw := query(map[string]any{"collection": "/items"}, bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s token: %d %s, want 400", name, resp.StatusCode, raw)
		}
	}
	// Once TrueTime has moved on past version retention, the token's
	// snapshot may have lost versions: the page is refused.
	region.Clock.(truetime.Forwarder).Forward(region.Clock.Now().Latest.Add(2 * time.Second))
	if resp, raw := query(map[string]any{"collection": "/items"}, token); resp.StatusCode != http.StatusFailedDependency {
		t.Fatalf("token older than retention: %d %s, want 424", resp.StatusCode, raw)
	}
}

func TestQueryCursorsOverHTTP(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for i := 0; i < 10; i++ {
		do(t, ts, "PUT", fmt.Sprintf("/v1/databases/app/docs/restaurants/r%d", i), map[string]any{
			"rating": i,
		}, nil)
	}
	names := func(body []byte) []string {
		t.Helper()
		var out struct {
			Documents []struct {
				Name string `json:"name"`
			} `json:"documents"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		var ns []string
		for _, d := range out.Documents {
			ns = append(ns, d.Name)
		}
		return ns
	}

	// Page through the bare collection by document-name cursor, the wire
	// form fsctl's scan command drives.
	var got []string
	after := []any(nil)
	for page := 0; page < 4; page++ {
		req := map[string]any{"collection": "/restaurants", "limit": 4}
		if after != nil {
			req["startAfter"] = after
		}
		resp, body := do(t, ts, "POST", "/v1/databases/app/query", req, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("page %d: %d %s", page, resp.StatusCode, body)
		}
		ns := names(body)
		if len(ns) == 0 {
			break
		}
		got = append(got, ns...)
		after = []any{ns[len(ns)-1]}
	}
	if len(got) != 10 || got[0] != "/restaurants/r0" || got[9] != "/restaurants/r9" {
		t.Fatalf("paged scan = %v", got)
	}

	// Value cursors at sort-order positions, both ends.
	resp, body := do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection": "/restaurants",
		"orderBy":    []map[string]any{{"field": "rating"}},
		"startAt":    []any{5},
		"endBefore":  []any{8},
	}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cursor range: %d %s", resp.StatusCode, body)
	}
	if ns := names(body); len(ns) != 3 || ns[0] != "/restaurants/r5" || ns[2] != "/restaurants/r7" {
		t.Fatalf("cursor range result = %v", ns)
	}

	// Conflicting and malformed cursors are the caller's fault.
	resp, _ = do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection": "/restaurants",
		"startAt":    []any{1},
		"startAfter": []any{2},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting cursors = %d", resp.StatusCode)
	}
	resp, _ = do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection": "/restaurants",
		"orderBy":    []map[string]any{{"field": "rating"}},
		"startAt":    []any{1, "/restaurants/r1", "extra"},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized cursor = %d", resp.StatusCode)
	}
}

// TestDottedFieldNamesRefused: a field name holding a dot, at the top
// level or as a key of a nested map, is the caller's fault, and nothing
// is written.
func TestDottedFieldNamesRefused(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for _, body := range []map[string]any{{"m.x": 1}, {"m": map[string]any{"x.y": 1}}} {
		if resp, raw := do(t, ts, "PUT", "/v1/databases/app/docs/c/d", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("put %v = %d %s, want 400", body, resp.StatusCode, raw)
		}
	}
	if resp, _ := do(t, ts, "GET", "/v1/databases/app/docs/c/d", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after the refused puts = %d, want 404", resp.StatusCode)
	}
}

func TestRulesOverHTTP(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	resp, body := do(t, ts, "POST", "/v1/databases/app/rules",
		`match /notes/{id} { allow read, write: if request.auth.uid == "alice"; }`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("set rules: %d %s", resp.StatusCode, body)
	}
	// Alice can write; bob cannot; anonymous cannot.
	authed := func(uid string) map[string]string {
		return map[string]string{"Authorization": "Bearer uid:" + uid, "X-Privileged": "false"}
	}
	resp, _ = do(t, ts, "PUT", "/v1/databases/app/docs/notes/1", map[string]any{"t": "hi"}, authed("alice"))
	if resp.StatusCode != 200 {
		t.Fatalf("alice put = %d", resp.StatusCode)
	}
	resp, _ = do(t, ts, "PUT", "/v1/databases/app/docs/notes/2", map[string]any{"t": "no"}, authed("bob"))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bob put = %d", resp.StatusCode)
	}
	// Bad rules are rejected.
	resp, _ = do(t, ts, "POST", "/v1/databases/app/rules", `not rules at all`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad rules = %d", resp.StatusCode)
	}
}

// TestRulesNestingRefused: a 1 MiB rules body that opens '(' to its end
// is refused with 400, and the server goes on serving.
func TestRulesNestingRefused(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	src := "match /a { allow read: if "
	src += strings.Repeat("(", 1<<20-len(src))
	if resp, body := do(t, ts, "POST", "/v1/databases/app/rules", src, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1 MiB of '(' = %d %.200s, want 400", resp.StatusCode, body)
	}
	if resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/c/d", map[string]any{"v": 1}, nil); resp.StatusCode != 200 {
		t.Fatalf("put after the refused rules = %d %s", resp.StatusCode, body)
	}
}

// TestRulesBodyCap deploys a rules body of exactly 1 MiB and refuses one
// a byte longer with 413.
func TestRulesBodyCap(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	padded := func(n int) string {
		src := "match /notes/{id} { allow read; }\n//"
		return src + strings.Repeat("x", n-len(src))
	}
	if resp, body := do(t, ts, "POST", "/v1/databases/app/rules", padded(1<<20), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("1 MiB of rules = %d %s, want 200", resp.StatusCode, body)
	}
	if resp, body := do(t, ts, "POST", "/v1/databases/app/rules", padded(1<<20+1), nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB + 1 byte of rules = %d %s, want 413", resp.StatusCode, body)
	}
}

func TestListenSSE(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	do(t, ts, "PUT", "/v1/databases/app/docs/scores/a", map[string]any{"v": 1}, nil)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/databases/app/listen?collection=/scores", nil)
	req.Header.Set("X-Privileged", "true")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %s", ct)
	}
	reader := bufio.NewReader(resp.Body)
	readEvent := func() map[string]any {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			line, err := reader.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev map[string]any
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatal(err)
				}
				return ev
			}
		}
		t.Fatal("no SSE event")
		return nil
	}
	initial := readEvent()
	if initial["initial"] != true {
		t.Fatalf("initial = %v", initial)
	}
	// A write produces a delta event.
	go func() {
		body, _ := json.Marshal(map[string]any{"v": 2})
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/databases/app/docs/scores/b", bytes.NewReader(body))
		req.Header.Set("X-Privileged", "true")
		ts.Client().Do(req)
	}()
	delta := readEvent()
	added, _ := delta["added"].([]any)
	if len(added) != 1 {
		t.Fatalf("delta = %v", delta)
	}
	t.Run("positions", func(t *testing.T) { listenPositions(t, ts) })
}

// listenPositions: under an inequality the target orders by the
// filtered field, so a modify can move a document, and the event says
// where to: "at" holds the index of each added, then modified, document
// in the new result.
func listenPositions(t *testing.T, ts *httptest.Server) {
	do(t, ts, "PUT", "/v1/databases/app/docs/places/a", map[string]any{"rating": 4}, nil)
	do(t, ts, "PUT", "/v1/databases/app/docs/places/b", map[string]any{"rating": 5}, nil)
	do(t, ts, "PUT", "/v1/databases/app/docs/places/c", map[string]any{"rating": 1}, nil)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/databases/app/listen?collection=/places&where=rating,>,3", nil)
	req.Header.Set("X-Privileged", "true")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reader := bufio.NewReader(resp.Body)
	type event struct {
		Initial  bool       `json:"initial"`
		Added    []Document `json:"added"`
		Modified []Document `json:"modified"`
		At       []int      `json:"at"`
	}
	readEvent := func() event {
		t.Helper()
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatal(err)
				}
				return ev
			}
		}
	}
	names := func(docs []Document) (out []string) {
		for _, d := range docs {
			out = append(out, d.Name)
		}
		return out
	}
	if ev := readEvent(); !ev.Initial || fmt.Sprint(names(ev.Added)) != "[/places/a /places/b]" {
		t.Fatalf("initial = %+v", ev)
	}
	// a moves from first to last: only its index says so.
	do(t, ts, "PUT", "/v1/databases/app/docs/places/a", map[string]any{"rating": 6}, nil)
	ev := readEvent()
	if fmt.Sprint(names(ev.Modified)) != "[/places/a]" || fmt.Sprint(ev.At) != "[1]" {
		t.Fatalf("modify = %+v, want /places/a at [1]", ev)
	}
	// c enters between b and a.
	do(t, ts, "PUT", "/v1/databases/app/docs/places/c", map[string]any{"rating": 5.5}, nil)
	ev = readEvent()
	if fmt.Sprint(names(ev.Added)) != "[/places/c]" || fmt.Sprint(ev.At) != "[1]" {
		t.Fatalf("add = %+v, want /places/c at [1]", ev)
	}
}

// TestJSONNumbersOverHTTP: a JSON integer literal is a 64-bit Int and
// any other number a Double, on the way in and on the way out. Decoded
// as float64, 9007199254740993 was stored as the Double
// 9007199254740992, so an equality on it also matched a document holding
// 9007199254740992, and 1.0 was stored as an Int.
func TestJSONNumbersOverHTTP(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/nums/exact",
		`{"n": 9007199254740993, "big": 9223372036854775807, "f": 1.0, "e": 1e3}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	do(t, ts, "PUT", "/v1/databases/app/docs/nums/near", `{"n": 9007199254740992}`, nil)
	_, body = do(t, ts, "GET", "/v1/databases/app/docs/nums/exact", nil, nil)
	for _, want := range []string{`"n":9007199254740993`, `"big":9223372036854775807`, `"f":1.0`, `"e":1000.0`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("get = %s, want it to hold %s", body, want)
		}
	}
	resp, body = do(t, ts, "POST", "/v1/databases/app/query",
		`{"collection": "/nums", "where": [{"field": "n", "op": "==", "value": 9007199254740993}]}`, nil)
	var page QueryPage
	if err := json.Unmarshal(body, &page); err != nil || resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if len(page.Documents) != 1 || page.Documents[0].Name != "/nums/exact" {
		t.Errorf("where n == 9007199254740993 returned %s", body)
	}
	if resp, _ := do(t, ts, "PUT", "/v1/databases/app/docs/nums/over", `{"n": 9223372036854775808}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("an integer past int64 answered %d, want 400", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	resp, _ := do(t, ts, "PUT", "/v1/databases/app/docs/odd", map[string]any{"v": 1}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("odd path = %d", resp.StatusCode)
	}
	resp, _ = do(t, ts, "POST", "/v1/databases/app/query", `{"collection": "/a/b"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad collection = %d", resp.StatusCode)
	}
	resp, _ = do(t, ts, "GET", "/v1/databases/ghost/docs/a/b", nil, nil)
	if resp.StatusCode == 200 {
		t.Fatal("missing db served")
	}
	// A one-key object whose key is a tag must hold the tag's type.
	for _, tagged := range []string{
		`{"t": {"$bytes": "!!not base64"}}`,
		`{"t": {"$time": "yesterday"}}`,
		`{"t": {"$geo": [1, "x"]}}`,
		`{"t": {"$ref": 7}}`,
	} {
		resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/c/tagged", tagged, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"t"`) {
			t.Errorf("put %s = %d %s, want 400 naming field \"t\"", tagged, resp.StatusCode, body)
		}
	}
	if resp, _ := do(t, ts, "GET", "/v1/databases/app/docs/c/tagged", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("a refused tagged value was stored: GET = %d", resp.StatusCode)
	}
}

// TestTaggedValuesRoundTrip: a PUT of the fields a GET returned stores
// the same values.
func TestTaggedValuesRoundTrip(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	fieldsOf := func(path string) map[string]any {
		t.Helper()
		resp, body := do(t, ts, "GET", path, nil, nil)
		var got struct {
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal(body, &got); resp.StatusCode != 200 || err != nil {
			t.Fatalf("get %s: %d %s", path, resp.StatusCode, body)
		}
		return got.Fields
	}
	if resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/c/a", `{"b": {"$bytes": "AQID"}, "t": {"$time": "2020-01-02T03:04:05.123456Z"},
		"r": {"$ref": "/c/b"}, "g": {"$geo": [37.7, -122.4]}, "m": {"x": {"$time": "0001-01-01T00:00:00Z"}}, "l": [{"$bytes": ""}, 1.5],
		"d": [{"$double": "NaN"}, {"$double": "Infinity"}, {"$double": "-Infinity"}], "gn": {"$geo": ["NaN", 0]}, "gi": {"$geo": [0, "-Infinity"]},
		"mt": {"$map": {"$ref": 7}}}`, nil); resp.StatusCode != 200 {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	first := fieldsOf("/v1/databases/app/docs/c/a")
	if resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/c/b", first, nil); resp.StatusCode != 200 {
		t.Fatalf("put of the fields GET returned: %d %s", resp.StatusCode, body)
	}
	if again := fieldsOf("/v1/databases/app/docs/c/b"); !reflect.DeepEqual(again, first) {
		t.Errorf("round trip stored %v, want %v", again, first)
	}
}

// TestWritesReadBack: the server acknowledges only a write whose
// document it can decode again. A field may nest 64 maps deep, as far as
// the decoder reads, and such a document is indexed; one map deeper, or
// a timestamp outside years 0001-9999 UTC, is refused.
func TestWritesReadBack(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	nested := func(maps int) string {
		return `{"a": 1, "m": ` + strings.Repeat(`{"m": `, maps-1) + `{"v": 1}` + strings.Repeat(`}`, maps-1) + `}`
	}
	if resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/c/deep", nested(64), nil); resp.StatusCode != 200 {
		t.Fatalf("64 nested maps = %d %s, want 200", resp.StatusCode, body)
	}
	for _, body := range []string{
		nested(65),
		`{"t": {"$time": "0000-01-01T00:00:00Z"}}`,
		`{"t": [{"$time": "9999-12-31T23:00:00-05:00"}]}`,
	} {
		if resp, raw := do(t, ts, "PUT", "/v1/databases/app/docs/c/refused", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("put %.40s... = %d %s, want 400", body, resp.StatusCode, raw)
		}
	}
	if resp, body := do(t, ts, "POST", "/v1/databases/app/indexes", map[string]any{
		"collection": "c", "fields": []map[string]any{{"path": "a"}, {"path": "m"}},
	}, nil); resp.StatusCode != 200 {
		t.Fatalf("index over the 64-deep document = %d %s, want 200", resp.StatusCode, body)
	}
	if resp, body := do(t, ts, "GET", "/v1/databases/app/docs/c/deep", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("get the 64-deep document = %d %s", resp.StatusCode, body)
	}
}

// TestTrailingBytesRefused: every JSON body the server reads must hold
// one value and nothing after it but whitespace. A body with trailing
// bytes is refused with 400 before it takes effect.
func TestTrailingBytesRefused(t *testing.T) {
	ts := newDebugServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/databases", `{"id": "late"} trailing`},
		{"POST", "/v1/databases/app/indexes", `{"collection": "c", "fields": [{"path": "a"}, {"path": "b"}]} {}`},
		{"PUT", "/v1/databases/app/docs/c/d", `{"a": 1} trailing garbage`},
		{"POST", "/v1/databases/app/query", `{"collection": "/c"}]`},
		{"POST", "/debug/faultz", `{"action": "reset"} 1`},
	} {
		if resp, body := do(t, ts, c.method, c.path, c.body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s with trailing bytes = %d %s, want 400", c.method, c.path, resp.StatusCode, body)
		}
	}
	if resp, _ := do(t, ts, "GET", "/v1/databases/app/docs/c/d", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("the refused PUT stored its document: GET = %d", resp.StatusCode)
	}
	if resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/c/d", "{\"a\": 1}\n", nil); resp.StatusCode != 200 {
		t.Errorf("a body ending in a newline = %d %s, want 200", resp.StatusCode, body)
	}
}

func TestCountOverHTTP(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for i := 0; i < 7; i++ {
		do(t, ts, "PUT", fmt.Sprintf("/v1/databases/app/docs/c/d%d", i), map[string]any{"n": i}, nil)
	}
	resp, body := do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection":   "/c",
		"where":        []map[string]any{{"field": "n", "op": ">=", "value": 3}},
		"aggregations": []map[string]any{{"op": "count", "alias": "n"}},
	}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("count: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Aggregations map[string]int64 `json:"aggregations"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Aggregations["n"] != 4 {
		t.Fatalf("count = %d, want 4", out.Aggregations["n"])
	}
}

func TestAggregationsOverHTTP(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for i := 0; i < 8; i++ {
		do(t, ts, "PUT", fmt.Sprintf("/v1/databases/app/docs/games/g%d", i), map[string]any{
			"score": i,
		}, nil)
	}
	resp, body := do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection": "/games",
		"aggregations": []map[string]any{
			{"op": "count", "alias": "n"},
			{"op": "sum", "field": "score", "alias": "total"},
			{"op": "avg", "field": "score", "alias": "mean"},
		},
	}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("aggregate: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Aggregations map[string]any `json:"aggregations"`
		ReadTime     int64          `json:"readTime"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ReadTime == 0 {
		t.Fatal("missing readTime")
	}
	// JSON numbers decode as float64.
	if got := out.Aggregations["n"]; got != float64(8) {
		t.Errorf("count = %v, want 8", got)
	}
	if got := out.Aggregations["total"]; got != float64(28) {
		t.Errorf("sum = %v, want 28", got)
	}
	if got := out.Aggregations["mean"]; got != float64(3.5) {
		t.Errorf("avg = %v, want 3.5", got)
	}

	// Malformed op is a 400, not a silent zero.
	resp, _ = do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection":   "/games",
		"aggregations": []map[string]any{{"op": "median", "field": "score", "alias": "m"}},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op = %d, want 400", resp.StatusCode)
	}
}

func TestExplainOverHTTP(t *testing.T) {
	ts := newServer(t)
	do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil)
	for i := 0; i < 6; i++ {
		do(t, ts, "PUT", fmt.Sprintf("/v1/databases/app/docs/r/x%d", i), map[string]any{
			"a": i % 2, "b": i % 3,
		}, nil)
	}
	resp, body := do(t, ts, "POST", "/v1/databases/app/query", map[string]any{
		"collection": "/r",
		"where": []map[string]any{
			{"field": "a", "op": "==", "value": 0},
			{"field": "b", "op": "==", "value": 0},
		},
		"explain": true,
		"analyze": true,
	}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Plan struct {
			Plan    string `json:"plan"`
			Choice  string `json:"choice"`
			Results int    `json:"results"`
		} `json:"plan"`
		ReadTime int64 `json:"readTime"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan.Choice != "zigzag" {
		t.Fatalf("plan = %+v, want zigzag", out.Plan)
	}
	if out.Plan.Results != 1 { // only x0 has a==0 and b==0
		t.Fatalf("analyze results = %d, want 1", out.Plan.Results)
	}
	if out.ReadTime == 0 {
		t.Fatal("missing readTime")
	}
}

// TestReplyUnencodablePage: a page that has no JSON form answers 500
// with the encoder's error, not 200 with an empty body, and the root
// span records INTERNAL.
func TestReplyUnencodablePage(t *testing.T) {
	region := core.NewRegion(core.Config{Name: "spans"})
	t.Cleanup(region.Close)
	h := New(region).handle("frontend.get", func(http.ResponseWriter, *http.Request) (any, error) {
		return map[string]any{"x": math.NaN()}, nil
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/databases/app/docs/c/d", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
		t.Errorf("unencodable page = %d %q, want 500 naming the value", rec.Code, rec.Body)
	}
	var recorded []string
	for _, h := range region.Obs.Snapshot().Histograms {
		if h.Name == "frontend.get" {
			recorded = append(recorded, fmt.Sprintf("%s x%d", h.Labels["code"], h.Count))
		}
	}
	if fmt.Sprint(recorded) != "[INTERNAL x1]" {
		t.Errorf("root span recorded %v, want [INTERNAL x1]", recorded)
	}
}
