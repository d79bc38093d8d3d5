package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"firestore/cmd/firestore-server/server"
	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/query"
)

// newLiveServer starts a real firestore-server (debug suite mounted)
// and returns a cli pointed at it.
func newLiveServer(t *testing.T) *cli {
	t.Helper()
	c, _ := newLiveRegion(t)
	return c
}

// newLiveRegion is newLiveServer that also returns the server's region.
func newLiveRegion(t *testing.T) (*cli, *core.Region) {
	t.Helper()
	region := core.NewRegion(core.Config{Name: "fsctl-test", SchedulerWorkers: 2})
	t.Cleanup(region.Close)
	srv := server.New(region)
	srv.EnableDebug(server.DebugOptions{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &cli{base: ts.URL, db: "app"}, region
}

// TestScanPageSizeAboveServerPage: a page size above the server's page
// (query.MaxResultSize) still prints the whole collection, not the first
// page.
func TestScanPageSizeAboveServerPage(t *testing.T) {
	c, region := newLiveRegion(t)
	if _, err := region.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	const n = query.MaxResultSize + 500
	ops := make([]backend.WriteOp, 0, n)
	for i := range n {
		ops = append(ops, backend.WriteOp{Kind: backend.OpSet, Name: doc.MustName(fmt.Sprintf("/c/d%04d", i)),
			Fields: map[string]doc.Value{"i": doc.Int(int64(i))}})
	}
	for len(ops) > 0 {
		k := min(len(ops), 500)
		if _, err := region.Commit(context.Background(), "app", backend.Principal{Privileged: true}, ops[:k]); err != nil {
			t.Fatal(err)
		}
		ops = ops[k:]
	}
	out := capture(t, func() error { return c.scan([]string{"/c", "5000"}) })
	if got := strings.Count(out, "\n"); got != n {
		t.Fatalf("scan /c 5000 printed %d documents, want %d", got, n)
	}
}

// capture runs fn with os.Stdout redirected to a pipe and returns what
// it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// seedTraffic writes and reads a few documents so heat and metrics exist.
func seedTraffic(t *testing.T, c *cli) {
	t.Helper()
	if err := c.post("/v1/databases", `{"id":"app"}`); err != nil {
		t.Fatalf("create db: %v", err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := c.put([]string{"/users/" + id, `{"name":"` + id + `"}`}); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
	if err := c.simple("GET", "/docs", []string{"/users/a"}); err != nil {
		t.Fatalf("get: %v", err)
	}
}

// TestKeyvizCommand exercises `fsctl keyviz` (terminal heatmap) and
// `fsctl keyviz svg` against a live server.
func TestKeyvizCommand(t *testing.T) {
	c := newLiveServer(t)
	_ = capture(t, func() error { seedTraffic(t, c); return nil })

	out := capture(t, func() error { return c.keyviz(nil) })
	if !strings.Contains(out, "keyviz:") {
		t.Errorf("keyviz output missing header:\n%s", out)
	}
	if !strings.Contains(out, "tablet/") {
		t.Errorf("keyviz output missing tablet rows:\n%s", out)
	}

	svg := capture(t, func() error { return c.keyviz([]string{"svg"}) })
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Errorf("keyviz svg: not an SVG document: %.80s", svg)
	}

	if err := c.keyviz([]string{"bogus"}); err == nil {
		t.Error("keyviz bogus: want usage error")
	}
}

// TestStatsWatch exercises the -watch delta mode: traffic between two
// scrapes must surface moved counters as per-second rates.
func TestStatsWatch(t *testing.T) {
	c := newLiveServer(t)
	_ = capture(t, func() error { seedTraffic(t, c); return nil })

	// More traffic arrives while the watcher sleeps between scrapes.
	go func() {
		for i := 0; i < 10; i++ {
			if resp, err := c.request("PUT", c.dbPath("/docs/users/w"), `{"n":1}`); err == nil {
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	out := capture(t, func() error { return c.statsWatch(30*time.Millisecond, "", 3) })
	if !strings.Contains(out, "/s") {
		t.Errorf("stats -watch printed no rates:\n%s", out)
	}
	if !strings.Contains(out, "-- ") {
		t.Errorf("stats -watch printed no tick headers:\n%s", out)
	}

	// Bad intervals are rejected up front.
	if err := c.stats([]string{"-watch"}); err == nil {
		t.Error("stats -watch without interval: want error")
	}
	if err := c.stats([]string{"-watch", "nope"}); err == nil {
		t.Error("stats -watch nope: want error")
	}
}

// TestDebugCommands drives every fsctl command that reads a /debug page
// (or the explain answer) against a live server: each must decode the
// page into the server's own type and render the traffic just sent.
func TestDebugCommands(t *testing.T) {
	region := core.NewRegion(core.Config{Name: "fsctl-test", SchedulerWorkers: 2, TraceSampleProb: 1})
	t.Cleanup(region.Close)
	srv := server.New(region)
	srv.EnableDebug(server.DebugOptions{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := &cli{base: ts.URL, db: "app"}
	_ = capture(t, func() error { seedTraffic(t, c); return c.query([]string{`{"collection":"/users"}`}) })

	for _, tc := range []struct {
		name string
		run  func() error
		want []string
	}{
		{"stats", func() error { return c.stats([]string{"backend.commit"}) },
			[]string{"backend.commit{code=OK,db=app}", "count=3"}},
		{"traces", func() error { return c.traces([]string{"sampled", "20"}) },
			[]string{"db=app", "frontend.put", "    backend.commit"}},
		{"storage", func() error { return c.storage(nil) },
			[]string{"spanner 0 tablet", "totals: tablets="}},
		{"cluster", func() error { return c.cluster(nil) },
			[]string{"single-process region"}},
		{"faults enable", func() error {
			return c.faults([]string{"enable", "backend.prepare", "error", "prob=0.5", "code=aborted", "max=3", "latency=1ms"})
		}, []string{`"site":"backend.prepare"`, `"enabled":true`}},
		{"faults list", func() error { return c.faults([]string{"list"}) },
			[]string{"backend.prepare", "error:ABORTED:1ms (max 3)", "0.5"}},
		{"faults reset", func() error { return c.faults([]string{"reset"}) },
			[]string{`"site":"backend.prepare"`}},
		{"explain", func() error { return c.explain([]string{`{"collection":"/users"}`, "analyze"}) },
			[]string{"entities   scan entities  [actual=3 scans=1 results=3]"}},
		{"advisor", func() error { return c.advisor(nil) },
			[]string{"CHOICE", "PLANNED", "/users"}},
	} {
		out := capture(t, tc.run)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("fsctl %s: output missing %q:\n%s", tc.name, want, out)
			}
		}
	}
}
