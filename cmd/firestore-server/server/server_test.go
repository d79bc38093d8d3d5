package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"firestore/internal/core"
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
			Chosen  bool   `json:"chosen"`
			Results int    `json:"results"`
		} `json:"plan"`
		Alternatives []map[string]any `json:"alternatives"`
		ReadTime     int64            `json:"readTime"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Plan.Chosen || out.Plan.Choice != "zigzag" {
		t.Fatalf("chosen plan = %+v, want zigzag", out.Plan)
	}
	if out.Plan.Results != 1 { // only x0 has a==0 and b==0
		t.Fatalf("analyze results = %d, want 1", out.Plan.Results)
	}
	if out.ReadTime == 0 {
		t.Fatal("missing readTime")
	}
}
