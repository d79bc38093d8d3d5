package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"firestore/internal/cluster"
	"firestore/internal/core"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/reqctx"
)

// newDebugServer builds a region with the fair scheduler enabled and
// every trace kept (SampleProb 1), with the /debug suite mounted.
func newDebugServer(t *testing.T) *httptest.Server {
	t.Helper()
	region := core.NewRegion(core.Config{
		Name:             "debug",
		SchedulerWorkers: 2,
		TraceSampleProb:  1,
	})
	t.Cleanup(region.Close)
	srv := New(region)
	srv.EnableDebug(DebugOptions{Pprof: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// runTraffic issues a small write/read/query workload against db "app".
func runTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	if resp, body := do(t, ts, "POST", "/v1/databases", map[string]string{"id": "app"}, nil); resp.StatusCode != 200 {
		t.Fatalf("create db: %d %s", resp.StatusCode, body)
	}
	for _, id := range []string{"a", "b", "c"} {
		if resp, body := do(t, ts, "PUT", "/v1/databases/app/docs/users/"+id,
			map[string]any{"name": id}, nil); resp.StatusCode != 200 {
			t.Fatalf("put %s: %d %s", id, resp.StatusCode, body)
		}
	}
	if resp, body := do(t, ts, "GET", "/v1/databases/app/docs/users/a", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("get: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, ts, "POST", "/v1/databases/app/query",
		map[string]any{"collection": "/users"}, nil); resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
}

// TestDebugMetricz is the metrics half of the PR's acceptance criterion:
// after a workload, one scrape of /debug/metricz shows per-database
// latency histograms for the frontend, wfq, backend, and spanner layers.
func TestDebugMetricz(t *testing.T) {
	ts := newDebugServer(t)
	runTraffic(t, ts)

	resp, body := do(t, ts, "GET", "/debug/metricz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metricz: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metricz content type = %q, want text/plain", ct)
	}
	text := string(body)
	for _, want := range []string{
		`firestore_frontend_put_latency_seconds{code="OK",db="app",quantile="0.5"}`,
		`firestore_wfq_submit_latency_seconds{code="OK",db="app",quantile="0.5"}`,
		`firestore_backend_commit_latency_seconds{code="OK",db="app",quantile="0.5"}`,
		`firestore_spanner_txn_commit_latency_seconds{code="OK",db="app",quantile="0.5"}`,
		`firestore_backend_get_latency_seconds{code="OK",db="app"`,
		`firestore_backend_query_latency_seconds{code="OK",db="app"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metricz missing %q", want)
		}
	}

	// The JSON rendering carries the same families plus scheduler and
	// spanner operational metrics.
	resp, body = do(t, ts, "GET", "/debug/metricz?format=json", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metricz json: %d %s", resp.StatusCode, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metricz json decode: %v\n%s", err, body)
	}
	found := map[string]bool{}
	for _, h := range snap.Histograms {
		if h.Labels["db"] == "app" && h.Labels["code"] == "OK" && h.Count > 0 && h.P50 > 0 {
			found[h.Name] = true
		}
	}
	for _, want := range []string{"frontend.put", "wfq.submit", "backend.commit", "spanner.txn.commit"} {
		if !found[want] {
			t.Errorf("metricz json: no populated db=app histogram for %q (have %v)", want, found)
		}
	}

	// Metric names and label keys are an interface (dashboards, fsctl
	// stats, the benchmark's counters): the set this workload produces
	// is pinned. Regenerate with -update-metricz only from a commit
	// whose names you mean to keep.
	got := strings.Join(metricShapes(snap), "\n") + "\n"
	const golden = "testdata/metricz_shapes.golden"
	if *updateMetricz {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metricz (name, label keys) set changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRootSpanCodes: each /v1 request is recorded once, under its
// route's operation and with the code of the handler's own error; a
// request that matches no route records nothing.
func TestRootSpanCodes(t *testing.T) {
	region := core.NewRegion(core.Config{Name: "spans"})
	t.Cleanup(region.Close)
	ts := httptest.NewServer(New(region))
	t.Cleanup(ts.Close)
	// samples counts the frontend.* samples, by "name{code}".
	samples := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, h := range region.Obs.Snapshot().Histograms {
			if strings.HasPrefix(h.Name, "frontend.") {
				out[h.Name+"{"+h.Labels["code"]+"}"] += h.Count
			}
		}
		return out
	}
	for _, c := range []struct {
		method, path string
		body         any
		status       int
		want         string // the one sample the request adds; "" for none
	}{
		{"POST", "/v1/databases", map[string]string{"id": "app"}, 200, "frontend.admin{OK}"},
		{"POST", "/v1/databases", map[string]string{"id": "app"}, 409, "frontend.admin{ALREADY_EXISTS}"},
		{"POST", "/v1/databases/app/rules", strings.Repeat(" ", 1<<20+1), 413, "frontend.admin{INVALID_ARGUMENT}"},
		{"PUT", "/v1/databases/app/docs/c/listen", map[string]any{"v": 1}, 200, "frontend.put{OK}"},
		{"PATCH", "/v1/databases/app/docs/c/d", map[string]any{"v": 2}, 405, ""},
		{"GET", "/v1/nothing/here", nil, 404, ""},
	} {
		before := samples()
		resp, body := do(t, ts, c.method, c.path, c.body, nil)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s = %d %s, want %d", c.method, c.path, resp.StatusCode, body, c.status)
		}
		added := map[string]uint64{}
		for k, n := range samples() {
			if n > before[k] {
				added[k] = n - before[k]
			}
		}
		want := map[string]uint64{}
		if c.want != "" {
			want[c.want] = 1
		}
		if !reflect.DeepEqual(added, want) {
			t.Errorf("%s %s recorded %v, want %v", c.method, c.path, added, want)
		}
	}
}

var updateMetricz = flag.Bool("update-metricz", false, "rewrite testdata/metricz_shapes.golden from this run")

// metricShapes returns the sorted, de-duplicated "kind name{label keys}"
// lines of a snapshot.
func metricShapes(snap obs.Snapshot) []string {
	set := map[string]bool{}
	add := func(kind, name string, labels obs.Labels) {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		set[kind+" "+name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	for _, c := range snap.Counters {
		add("counter", c.Name, c.Labels)
	}
	for _, g := range snap.Gauges {
		add("gauge", g.Name, g.Labels)
	}
	for _, h := range snap.Histograms {
		add("histogram", h.Name, h.Labels)
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestDebugTracez is the tracing half of the acceptance criterion: a
// sampled trace exists whose span tree nests frontend -> wfq -> backend
// -> spanner, and at every level the children's durations sum to no more
// than their parent's.
func TestDebugTracez(t *testing.T) {
	ts := newDebugServer(t)
	runTraffic(t, ts)

	resp, body := do(t, ts, "GET", "/debug/tracez?kind=sampled&n=64", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("tracez: %d %s", resp.StatusCode, body)
	}
	type span = reqctx.SpanData
	var page TracezPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("tracez decode: %v\n%s", err, body)
	}
	if page.Stats.Started == 0 || page.Stats.Kept == 0 {
		t.Fatalf("tracez stats empty: %+v", page.Stats)
	}

	// Find a put trace exhibiting the full four-layer nesting.
	var nested bool
	for _, tr := range page.Sampled {
		spans := map[uint64]span{}
		children := map[uint64][]span{}
		var root span
		for _, s := range tr.Spans {
			spans[s.ID] = s
			children[s.ParentID] = append(children[s.ParentID], s)
			if s.ParentID == 0 {
				root = s
			}
		}
		if root.Name != "frontend.put" {
			continue
		}
		// Walk the chain frontend.put -> wfq.submit -> backend.commit ->
		// spanner.txn.commit by parent links.
		chainOK := false
		for _, s := range tr.Spans {
			if s.Name != "spanner.txn.commit" {
				continue
			}
			names := []string{}
			for cur := s; ; cur = spans[cur.ParentID] {
				names = append(names, cur.Name)
				if cur.ParentID == 0 {
					break
				}
			}
			// names is leaf->root.
			if len(names) >= 4 &&
				names[len(names)-1] == "frontend.put" &&
				contains(names, "wfq.submit") &&
				contains(names, "backend.commit") {
				chainOK = true
			}
		}
		if !chainOK {
			continue
		}
		// Child durations must not exceed the parent at any node.
		ok := true
		for pid, kids := range children {
			if pid == 0 {
				continue
			}
			var sum time.Duration
			for _, k := range kids {
				sum += k.Duration
			}
			if p := spans[pid].Duration; sum > p {
				t.Errorf("trace %s: children of %s sum %v > parent %v", tr.ID, spans[pid].Name, sum, p)
				ok = false
			}
		}
		if ok {
			nested = true
			break
		}
	}
	if !nested {
		t.Fatalf("no sampled trace nests frontend.put -> wfq.submit -> backend.commit -> spanner.txn.commit (got %d sampled traces)", len(page.Sampled))
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestDebugStatusPages smoke-tests the remaining status endpoints and
// checks that debug scrapes do not pollute the RPC metrics.
func TestDebugStatusPages(t *testing.T) {
	ts := newDebugServer(t)
	runTraffic(t, ts)

	for _, path := range []string{
		"/debug/requestz",
		"/debug/schedz",
		"/debug/tabletz",
		"/debug/storagez",
		"/debug/listenz",
		"/debug/clusterz",
		"/debug/vars",
	} {
		resp, body := do(t, ts, "GET", path, nil, nil)
		if resp.StatusCode != 200 {
			t.Errorf("%s: %d %s", path, resp.StatusCode, body)
			continue
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s: not JSON: %v", path, err)
		}
	}

	resp, body := do(t, ts, "GET", "/debug/schedz", nil, nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "app") {
		t.Errorf("schedz should report per-database state for app: %d %s", resp.StatusCode, body)
	}

	// Scraping /debug must not add frontend.admin (or any) RPC samples:
	// debug paths bypass the ingress span.
	count := func() uint64 {
		_, b := do(t, ts, "GET", "/debug/metricz?format=json", nil, nil)
		var snap obs.Snapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatalf("metricz decode: %v", err)
		}
		var total uint64
		for _, h := range snap.Histograms {
			if strings.HasPrefix(h.Name, "frontend.") {
				total += h.Count
			}
		}
		return total
	}
	before := count()
	for i := 0; i < 3; i++ {
		do(t, ts, "GET", "/debug/tracez", nil, nil)
		do(t, ts, "GET", "/debug/requestz", nil, nil)
	}
	if after := count(); after != before {
		t.Errorf("debug scrapes changed frontend span counts: before=%d after=%d", before, after)
	}
}

// TestDebugPagesRoundTrip holds the debug plane to "typed once": every
// /debug page of a live server (and the explain answer) decodes, with
// unknown fields disallowed, into the type fsctl decodes it into, and
// that value re-encodes to the same JSON — so neither side can grow or
// rename a field the other does not know.
func TestDebugPagesRoundTrip(t *testing.T) {
	region := core.NewRegion(core.Config{Name: "debug", SchedulerWorkers: 2, TraceSampleProb: 1})
	t.Cleanup(region.Close)
	srv := New(region)
	srv.EnableDebug(DebugOptions{})
	srv.SetClusterInfo(func() cluster.ClusterStatus {
		return cluster.ClusterStatus{Coordinator: "127.0.0.1:1", Peers: []cluster.PeerStatus{{
			Name: "ts1", Addr: "127.0.0.1:2", Kind: "disk", LastHeartbeatUnixNano: 1, TabletsReported: 1,
			Owned: []cluster.OwnedTablet{{Tablet: 7, Start: []byte("a"), Live: true}},
		}}}
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	runTraffic(t, ts)
	// A failed read so the error ring and a non-OK code label exist.
	do(t, ts, "GET", "/v1/databases/app/docs/users/missing", nil, nil)

	explain := map[string]any{"collection": "/users", "explain": true, "analyze": true}
	for _, page := range []struct {
		method, path string
		body         any
		into         any
	}{
		{"GET", "/debug/metricz?format=json", nil, &obs.Snapshot{}},
		{"GET", "/debug/tracez", nil, &TracezPage{}},
		{"GET", "/debug/tracez?kind=error&n=2", nil, &TracezPage{}},
		{"GET", "/debug/requestz", nil, &RequestzPage{}},
		{"GET", "/debug/schedz", nil, &SchedzPage{}},
		{"GET", "/debug/tabletz", nil, &TabletsPage{}},
		{"GET", "/debug/storagez", nil, &TabletsPage{}},
		{"GET", "/debug/listenz", nil, &ListenzPage{}},
		{"GET", "/debug/faultz", nil, &FaultzPage{}},
		{"POST", "/debug/faultz", FaultzRequest{Action: "reset"}, &FaultzPage{}},
		{"GET", "/debug/advisorz?db=app", nil, &AdvisorzPage{}},
		{"GET", "/debug/keyvizz", nil, &keyviz.Snapshot{}},
		{"GET", "/debug/clusterz", nil, &ClusterzPage{}},
		{"POST", "/v1/databases/app/query", explain, &ExplainPage{}},
	} {
		resp, body := do(t, ts, page.method, page.path, page.body, nil)
		if resp.StatusCode != 200 {
			t.Errorf("%s: %d %s", page.path, resp.StatusCode, body)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(page.into); err != nil {
			t.Errorf("%s does not decode into %T: %v\n%s", page.path, page.into, err, body)
			continue
		}
		again, err := json.Marshal(page.into)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", page.path, err)
		}
		var want, got any
		if json.Unmarshal(body, &want) != nil || json.Unmarshal(again, &got) != nil || !reflect.DeepEqual(want, got) {
			t.Errorf("%s: %T loses or adds fields\nserver:  %s\ndecoded: %s", page.path, page.into, body, again)
		}
	}
}

// TestDebugKeyvizz drives a workload and checks the keyspace heatmap
// endpoint in both renderings: the JSON snapshot carries tablet heat
// cells with nonzero ops, and ?format=svg returns a self-contained SVG.
func TestDebugKeyvizz(t *testing.T) {
	ts := newDebugServer(t)
	runTraffic(t, ts)

	resp, body := do(t, ts, "GET", "/debug/keyvizz", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("keyvizz: %d %s", resp.StatusCode, body)
	}
	var snap keyviz.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("keyvizz decode: %v\n%s", err, body)
	}
	if !snap.Enabled {
		t.Fatal("keyvizz: collector should be enabled by default")
	}
	var tabletOps int64
	for _, w := range snap.Windows {
		for _, c := range w.Cells {
			if c.Source == "tablet" {
				tabletOps += c.Ops
			}
		}
	}
	if tabletOps == 0 {
		t.Errorf("keyvizz: no tablet heat recorded after traffic:\n%s", body)
	}

	// The text renderer (fsctl keyviz) consumes the same snapshot.
	if text := keyviz.RenderText(snap, 64); !strings.Contains(text, "tablet/") {
		t.Errorf("RenderText: no tablet rows:\n%s", text)
	}

	resp, body = do(t, ts, "GET", "/debug/keyvizz?format=svg", nil, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("keyvizz svg: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("keyvizz svg content type = %q", ct)
	}
	if !strings.HasPrefix(string(body), "<svg") || !strings.Contains(string(body), "</svg>") {
		t.Errorf("keyvizz svg: not an SVG document: %.80s", body)
	}
}

// TestDebugKeyvizzOff verifies the KeyVizOff knob: the endpoint 404s
// when the region was built without a collector.
func TestDebugKeyvizzOff(t *testing.T) {
	region := core.NewRegion(core.Config{Name: "debug", KeyVizOff: true})
	t.Cleanup(region.Close)
	srv := New(region)
	srv.EnableDebug(DebugOptions{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, _ := do(t, ts, "GET", "/debug/keyvizz", nil, nil)
	if resp.StatusCode != 404 {
		t.Errorf("keyvizz with KeyVizOff: got %d, want 404", resp.StatusCode)
	}
}

// TestDebugDisabled verifies the suite is opt-in: a plain server 404s
// every /debug path.
func TestDebugDisabled(t *testing.T) {
	ts := newServer(t)
	resp, _ := do(t, ts, "GET", "/debug/metricz", nil, nil)
	if resp.StatusCode != 404 {
		t.Errorf("metricz without EnableDebug: got %d, want 404", resp.StatusCode)
	}
	resp, _ = do(t, ts, "GET", "/debug/pprof/", nil, nil)
	if resp.StatusCode != 404 {
		t.Errorf("pprof without EnableDebug: got %d, want 404", resp.StatusCode)
	}
}

// TestDebugPagesCarryRequestID: a debug page is served through the same
// ingress as a /v1 route, so it echoes the caller's X-Request-Id, or
// mints one.
func TestDebugPagesCarryRequestID(t *testing.T) {
	ts := newDebugServer(t)
	for _, page := range []struct{ method, path string }{
		{"GET", "/debug/metricz"},
		{"GET", "/debug/metricz?format=json"},
		{"GET", "/debug/tracez"},
		{"GET", "/debug/requestz"},
		{"GET", "/debug/schedz"},
		{"GET", "/debug/tabletz"},
		{"GET", "/debug/storagez"},
		{"GET", "/debug/listenz"},
		{"GET", "/debug/faultz"},
		{"POST", "/debug/faultz"},
		{"GET", "/debug/advisorz"},
		{"GET", "/debug/keyvizz?format=svg"},
		{"GET", "/debug/clusterz"},
	} {
		var body any
		if page.method == "POST" {
			body = FaultzRequest{Action: "reset"}
		}
		if resp, raw := do(t, ts, page.method, page.path, body, nil); resp.StatusCode != 200 || resp.Header.Get("X-Request-Id") == "" {
			t.Errorf("%s %s = %d %.80s with request ID %q, want 200 and a minted ID", page.method, page.path, resp.StatusCode, raw, resp.Header.Get("X-Request-Id"))
		}
		if resp, _ := do(t, ts, page.method, page.path, body, map[string]string{"X-Request-Id": "scrape-1"}); resp.Header.Get("X-Request-Id") != "scrape-1" {
			t.Errorf("%s %s echoed request ID %q, want scrape-1", page.method, page.path, resp.Header.Get("X-Request-Id"))
		}
	}
}
