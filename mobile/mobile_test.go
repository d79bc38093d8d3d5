package mobile

import (
	"context"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"firestore/firestore"
	"firestore/internal/core"
	"firestore/internal/fault"
	"firestore/internal/rules"
	"firestore/internal/status"
)

const openRules = `match /{rest=**} { allow read, write; }`

type env struct {
	region *core.Region
	fs     *firestore.Client // alice's Server SDK client, for building queries
	client *Client
	admin  *firestore.Client // privileged: what the server really holds
}

func newEnv(t *testing.T, rulesSrc string) *env {
	t.Helper()
	region := core.NewRegion(core.Config{})
	t.Cleanup(region.Close)
	if _, err := region.CreateDatabase("app"); err != nil {
		t.Fatal(err)
	}
	if err := region.SetRules("app", rulesSrc); err != nil {
		t.Fatal(err)
	}
	e := &env{region: region, admin: firestore.NewClient(region, "app")}
	e.fs, e.client = e.user(t, "alice")
	return e
}

// user opens another device on the same database.
func (e *env) user(t *testing.T, uid string) (*firestore.Client, *Client) {
	fs := firestore.NewUserClient(e.region, "app", &rules.Auth{UID: uid})
	c := NewClient(fs)
	t.Cleanup(c.Close)
	return fs, c
}

// server reads what the service holds, bypassing every cache and rule.
func (e *env) server(t *testing.T, path string) *firestore.DocumentSnapshot {
	t.Helper()
	s, err := e.admin.Doc(path).Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fields(kv ...any) map[string]any {
	out := map[string]any{}
	for i := 0; i < len(kv); i += 2 {
		out[kv[i].(string)] = kv[i+1]
	}
	return out
}

func at(s *firestore.DocumentSnapshot, field string) any {
	v, _ := s.DataAt(field)
	return v
}

func waitPending(t *testing.T, c *Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := c.WaitForPendingWrites(ctx); err != nil {
		t.Fatal(err)
	}
}

// recorder collects a listener's snapshots.
type recorder struct {
	mu    sync.Mutex
	snaps []Snapshot
}

func (r *recorder) add(s Snapshot) {
	r.mu.Lock()
	r.snaps = append(r.snaps, s)
	r.mu.Unlock()
}

func (r *recorder) last() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snaps[len(r.snaps)-1]
}

// eventually waits until some recorded snapshot satisfies ok.
func (r *recorder) eventually(t *testing.T, what string, ok func(Snapshot) bool) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		r.mu.Lock()
		for _, s := range r.snaps {
			if ok(s) {
				r.mu.Unlock()
				return
			}
		}
		r.mu.Unlock()
	}
	t.Fatalf("no snapshot with %s", what)
}

func paths(s Snapshot) string {
	var ps []string
	for _, d := range s.Docs {
		ps = append(ps, d.Ref.Path())
	}
	return strings.Join(ps, " ")
}

func TestLatencyCompensation(t *testing.T) {
	e := newEnv(t, openRules)
	// The local read reflects the write immediately, before any flush.
	if err := e.client.Set("/notes/1", fields("text", "hello")); err != nil {
		t.Fatal(err)
	}
	d, err := e.client.Get(context.Background(), "/notes/1")
	if err != nil || !d.Exists() || at(d, "text") != "hello" {
		t.Fatalf("local get = %v, %v", d, err)
	}
	// Eventually the service has it too.
	waitPending(t, e.client)
	if got := e.server(t, "/notes/1"); at(got, "text") != "hello" {
		t.Fatalf("server get = %v", got.Data())
	}
}

func TestOfflineWritesReconcile(t *testing.T) {
	e := newEnv(t, openRules)
	e.client.GoOffline()
	e.client.Set("/notes/a", fields("n", 1))
	e.client.Set("/notes/b", fields("n", 2))
	e.client.Delete("/notes/a")
	if e.client.PendingWrites() != 3 {
		t.Fatalf("pending = %d", e.client.PendingWrites())
	}
	// Local view honors the whole queue.
	if d, _ := e.client.Get(context.Background(), "/notes/a"); d.Exists() {
		t.Fatal("deleted doc visible locally")
	}
	if d, _ := e.client.Get(context.Background(), "/notes/b"); !d.Exists() {
		t.Fatal("offline write invisible locally")
	}
	// Nothing reached the server.
	if e.server(t, "/notes/b").Exists() {
		t.Fatal("server saw offline write")
	}
	// Reconnect: the queue drains in order.
	e.client.GoOnline()
	waitPending(t, e.client)
	if e.server(t, "/notes/a").Exists() {
		t.Fatal("delete not reconciled")
	}
	if got := e.server(t, "/notes/b"); at(got, "n") != int64(2) {
		t.Fatalf("server b = %v", got.Data())
	}
}

// TestDottedFieldNameRefusedOffline: an offline Set whose data holds a
// dotted field name fails at once, and queues nothing.
func TestDottedFieldNameRefusedOffline(t *testing.T) {
	e := newEnv(t, openRules)
	e.client.GoOffline()
	err := e.client.Set("/notes/a", map[string]any{"m": map[string]any{"x.y": 1}})
	if status.CodeOf(err) != status.InvalidArgument || e.client.PendingWrites() != 0 {
		t.Fatalf("Set = %v with %d pending write(s), want InvalidArgument and none", err, e.client.PendingWrites())
	}
	if d, _ := e.client.Get(context.Background(), "/notes/a"); d.Exists() {
		t.Fatal("refused write visible locally")
	}
}

func TestLastWriteWinsAcrossClients(t *testing.T) {
	e := newEnv(t, openRules)
	_, other := e.user(t, "bob")

	e.client.GoOffline()
	e.client.Set("/notes/1", fields("by", "alice"))
	other.Set("/notes/1", fields("by", "bob"))
	waitPending(t, other)
	// Alice reconnects later: her blind write lands last and wins.
	e.client.GoOnline()
	waitPending(t, e.client)
	if got := e.server(t, "/notes/1"); at(got, "by") != "alice" {
		t.Fatalf("final = %v", got.Data())
	}
}

func TestOnSnapshotLocalThenServer(t *testing.T) {
	e := newEnv(t, openRules)
	var rec recorder
	stop, err := e.client.OnSnapshot(e.fs.Collection("notes").Query(), rec.add)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// First callback: empty, from cache.
	rec.mu.Lock()
	if len(rec.snaps) == 0 || !rec.snaps[0].FromCache {
		t.Fatalf("first snapshot = %+v", rec.snaps)
	}
	rec.mu.Unlock()

	// A local write surfaces immediately with pending-writes metadata.
	e.client.Set("/notes/1", fields("n", 1))
	rec.eventually(t, "the latency-compensated write", func(s Snapshot) bool {
		return len(s.Docs) == 1 && s.HasPendingWrites
	})

	// A write from ANOTHER user arrives via the server stream.
	if err := e.admin.Doc("notes/2").Set(context.Background(), fields("n", 2)); err != nil {
		t.Fatal(err)
	}
	rec.eventually(t, "the server update", func(s Snapshot) bool { return len(s.Docs) == 2 })
}

// TestProjectedListenerCachesWholeDocuments: a projected listener fills
// the cache with whole documents and gets the server's result in query
// order, so a later Get and a local query over the field the projection
// drops still see it.
func TestProjectedListenerCachesWholeDocuments(t *testing.T) {
	e := newEnv(t, openRules)
	ctx := context.Background()
	for id, rating := range map[string]int{"a": 10, "b": 9, "c": 8} {
		if err := e.admin.Doc("notes/"+id).Set(ctx, fields("name", id, "rating", rating)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.client.Get(ctx, "/notes/a"); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	stop, err := e.client.OnSnapshot(e.fs.Collection("notes").OrderBy("rating", firestore.Asc).Select("name"), rec.add)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	rec.eventually(t, "the server's result", func(s Snapshot) bool {
		return !s.FromCache && paths(s) == "/notes/c /notes/b /notes/a"
	})
	if a, err := e.client.Get(ctx, "/notes/a"); err != nil || at(a, "rating") != int64(10) {
		t.Fatalf("cached a = %v, %v; want its rating kept", a.Data(), err)
	}
	snap, err := e.client.Query(e.fs.Collection("notes").Where("rating", ">=", 9))
	if err != nil || len(snap.Docs) != 2 {
		t.Fatalf("local rating >= 9 = %s, %v; want a and b", paths(snap), err)
	}
}

func TestOnSnapshotOfflineServesCache(t *testing.T) {
	e := newEnv(t, openRules)
	e.client.Set("/notes/1", fields("n", 1))
	waitPending(t, e.client)
	e.client.GoOffline()

	var rec recorder
	stop, err := e.client.OnSnapshot(e.fs.Collection("notes").Query(), rec.add)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if last := rec.last(); len(last.Docs) != 1 || !last.FromCache {
		t.Fatalf("offline snapshot = %+v", last)
	}
	// Offline mutation still updates the listener.
	e.client.Set("/notes/2", fields("n", 2))
	if last := rec.last(); len(last.Docs) != 2 || !last.HasPendingWrites {
		t.Fatalf("offline mutation snapshot = %+v", last)
	}
}

func TestQueryLocalSemantics(t *testing.T) {
	e := newEnv(t, openRules)
	for i := 0; i < 5; i++ {
		e.client.Set("/notes/"+string(rune('a'+i)), fields("n", i))
	}
	snap, err := e.client.Query(e.fs.Collection("notes").Where("n", ">=", 2).Limit(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Docs) != 2 {
		t.Fatalf("local query = %d docs", len(snap.Docs))
	}
	if at(snap.Docs[0], "n") != int64(2) {
		t.Fatalf("local order wrong: %v", snap.Docs[0].Data())
	}
	if _, err := e.client.Query(e.fs.Collection("notes").Where("n", "~", 2)); err == nil {
		t.Fatal("invalid query evaluated")
	}
}

// TestLocalAnswerMatchesServerOverMaps: writes made offline, maps among
// their values, once acknowledged give the same answer to an ordered,
// limited or map-filtered query locally as on the server, document for
// document and field for field.
func TestLocalAnswerMatchesServerOverMaps(t *testing.T) {
	e := newEnv(t, openRules)
	x := func(v any) map[string]any { return fields("x", v) }
	e.client.GoOffline()
	for i, v := range []any{1, x(1), x(2), map[string]any{}, x(x(1)), "s", []any{x(1)}, nil} {
		e.client.Set("/notes/n"+strconv.Itoa(i), fields("a", v))
	}
	e.client.Set("/notes/none", fields("b", 1))
	e.client.GoOnline()
	waitPending(t, e.client)
	notes := e.fs.Collection("notes")
	for _, q := range []firestore.Query{
		notes.OrderBy("a", firestore.Asc),
		notes.OrderBy("a", firestore.Desc).Limit(3),
		notes.Where("a", ">", x(1)),
		notes.Where("a", "==", x(2)),
		notes.Where("a.x", "==", 1).Select("a"),
	} {
		local, err := e.client.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		server, err := q.GetAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := paths(Snapshot{Docs: server})
		if got := paths(local); got != want || len(server) == 0 {
			t.Fatalf("local answer %q, server %q", got, want)
		}
		for i, s := range server {
			if !reflect.DeepEqual(local.Docs[i].Data(), s.Data()) {
				t.Fatalf("%s: local %v, server %v", s.Ref.Path(), local.Docs[i].Data(), s.Data())
			}
		}
	}
}

func TestTransactionsRequireConnectivity(t *testing.T) {
	e := newEnv(t, openRules)
	e.client.Set("/counters/c", fields("n", 0))
	waitPending(t, e.client)
	ctx := context.Background()
	err := e.client.RunTransaction(ctx, func(tx *firestore.Transaction) error {
		d, err := tx.Get(e.fs.Doc("counters/c"))
		if err != nil {
			return err
		}
		return tx.Set(e.fs.Doc("counters/c"), fields("n", at(d, "n").(int64)+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.client.Get(ctx, "/counters/c")
	if at(got, "n") != int64(1) {
		t.Fatalf("counter = %v", got.Data())
	}
	e.client.GoOffline()
	if err := e.client.RunTransaction(ctx, func(*firestore.Transaction) error { return nil }); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline txn = %v", err)
	}
}

func TestRulesApplyToMobileTraffic(t *testing.T) {
	e := newEnv(t, `match /mine/{id} { allow read, write: if request.auth.uid == "alice"; }`)
	// Alice's client can write /mine; the flush succeeds.
	e.client.Set("/mine/1", fields("v", 1))
	waitPending(t, e.client)
	if !e.server(t, "/mine/1").Exists() {
		t.Fatal("allowed write lost")
	}
	// A write to a forbidden path is rejected server-side and dropped
	// from the queue (local view saw it transiently).
	e.client.Set("/other/1", fields("v", 1))
	waitPending(t, e.client)
	if e.server(t, "/other/1").Exists() {
		t.Fatal("denied write landed")
	}
}

func TestPersistenceWarmCache(t *testing.T) {
	e := newEnv(t, openRules)
	e.client.Set("/notes/1", fields("n", 1))
	waitPending(t, e.client)
	e.client.GoOffline()
	e.client.Set("/notes/2", fields("n", 2)) // stays queued
	e.client.Delete("/notes/3")              // so does a delete
	state := e.client.Export()

	// "Device restart": a fresh offline client imports the state.
	_, restarted := e.user(t, "alice")
	restarted.GoOffline()
	if err := restarted.Import(state); err != nil {
		t.Fatal(err)
	}
	d, _ := restarted.Get(context.Background(), "/notes/1")
	if at(d, "n") != int64(1) {
		t.Fatalf("warm cache miss: %v", d.Data())
	}
	if restarted.PendingWrites() != 2 {
		t.Fatalf("pending after import = %d", restarted.PendingWrites())
	}
	// Going online flushes the imported queue.
	restarted.GoOnline()
	waitPending(t, restarted)
	if !e.server(t, "/notes/2").Exists() {
		t.Fatal("imported mutation not flushed")
	}
}

func TestImportCorrupt(t *testing.T) {
	e := newEnv(t, openRules)
	if err := e.client.Import([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("corrupt state accepted")
	}
	e.client.Set("/notes/1", fields("n", 1))
	waitPending(t, e.client)
	good := e.client.Export()
	if err := e.client.Import(append(good[:len(good):len(good)], 0x01)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Every truncation is an error, never a panic.
	for n := range good {
		if err := e.client.Import(good[:n]); err == nil {
			t.Fatalf("state truncated to %d of %d bytes accepted", n, len(good))
		}
	}
}

func TestGetUncachedOffline(t *testing.T) {
	e := newEnv(t, openRules)
	// Doc exists on the server but was never cached.
	if err := e.admin.Doc("notes/server").Set(context.Background(), fields("n", 1)); err != nil {
		t.Fatal(err)
	}
	e.client.GoOffline()
	d, err := e.client.Get(context.Background(), "/notes/server")
	if err != nil || d.Exists() {
		t.Fatalf("offline uncached get = %v, %v", d, err)
	}
	// Online: fetched and cached.
	e.client.GoOnline()
	d, err = e.client.Get(context.Background(), "/notes/server")
	if err != nil || !d.Exists() {
		t.Fatalf("online get = %v, %v", d, err)
	}
	e.client.GoOffline()
	d, err = e.client.Get(context.Background(), "/notes/server")
	if err != nil || !d.Exists() {
		t.Fatal("cache not warmed by online get")
	}
}

// TestReconnectReconcilesRemoteDeletes pins the Initial-replaces rule: a
// document someone else deleted while this device could not hear about it
// leaves the cache with the listener's next full snapshot — after a
// reconnect, and after the frontend's mid-stream reset — while documents
// the listener never held stay.
func TestReconnectReconcilesRemoteDeletes(t *testing.T) {
	e := newEnv(t, openRules)
	ctx := context.Background()
	for _, p := range []string{"notes/1", "notes/2", "notes/3", "other/kept"} {
		if err := e.admin.Doc(p).Set(ctx, fields("n", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := e.client.Get(ctx, "/other/kept"); err != nil || !d.Exists() { // cached by Get, held by no listener
		t.Fatalf("get = %v, %v", d, err)
	}
	var rec recorder
	stop, err := e.client.OnSnapshot(e.fs.Collection("notes").Query(), rec.add)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	synced := func(want string) func(Snapshot) bool {
		return func(s Snapshot) bool { return !s.FromCache && paths(s) == want }
	}
	rec.eventually(t, "the initial server result", synced("/notes/1 /notes/2 /notes/3"))

	// The cache itself (Query never touches the network) and Get agree.
	check := func(gone, notes string) {
		t.Helper()
		if d, err := e.client.Get(ctx, gone); err != nil || d.Exists() {
			t.Fatalf("%s deleted remotely, still served: %v, %v", gone, d.Data(), err)
		}
		if local, _ := e.client.Query(e.fs.Collection("notes").Query()); paths(local) != notes {
			t.Fatalf("cached notes = %q, want %q", paths(local), notes)
		}
		if local, _ := e.client.Query(e.fs.Collection("other").Query()); paths(local) != "/other/kept" {
			t.Fatalf("a document cached by Get did not survive the listener's full snapshot: %q", paths(local))
		}
	}

	// Offline, a remote delete, online again.
	e.client.GoOffline()
	if err := e.admin.Doc("notes/1").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	e.client.GoOnline()
	rec.eventually(t, "the reconnect result", synced("/notes/2 /notes/3"))
	check("/notes/1", "/notes/2 /notes/3")

	// Online, but the connection loses the delta: the frontend resets and
	// requeries, and the full snapshot arrives mid-stream.
	if err := fault.Enable(fault.Spec{Site: fault.FrontendConnDeliver, Mode: fault.ModeDrop, MaxCount: 1}); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable(fault.FrontendConnDeliver)
	if err := e.admin.Doc("notes/2").Delete(ctx); err != nil {
		t.Fatal(err)
	}
	rec.eventually(t, "the reset result", synced("/notes/3"))
	if fault.Injected(fault.FrontendConnDeliver) == 0 {
		t.Fatal("no delivery was dropped: the reset path did not run")
	}
	check("/notes/2", "/notes/3")
}

// TestFlushRetriesTransientFailure: a write the application saw succeed
// locally survives a transient failure of the service.
func TestFlushRetriesTransientFailure(t *testing.T) {
	e := newEnv(t, openRules)
	spec := fault.Spec{Site: fault.BackendPrepare, Mode: fault.ModeError, Code: status.Unavailable, MaxCount: 2}
	if err := fault.Enable(spec); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable(spec.Site)
	e.client.Set("/notes/1", fields("n", 1))
	waitPending(t, e.client)
	if !e.server(t, "/notes/1").Exists() || e.client.PendingWrites() != 0 {
		t.Fatalf("after transient failures: on server %v, pending %d", e.server(t, "/notes/1").Exists(), e.client.PendingWrites())
	}
	if fault.Injected(spec.Site) < 2 {
		t.Fatalf("injected %d failures, want 2", fault.Injected(spec.Site))
	}

	// Going offline while the service keeps failing leaves the write
	// queued; it lands after the outage.
	spec.MaxCount = 0
	if err := fault.Enable(spec); err != nil {
		t.Fatal(err)
	}
	before := fault.Injected(spec.Site)
	e.client.Set("/notes/2", fields("n", 2))
	for fault.Injected(spec.Site) == before {
		time.Sleep(time.Millisecond)
	}
	e.client.GoOffline()
	fault.Disable(spec.Site)
	if e.client.PendingWrites() != 1 || e.server(t, "/notes/2").Exists() {
		t.Fatalf("offline mid-retry: pending %d, on server %v", e.client.PendingWrites(), e.server(t, "/notes/2").Exists())
	}
	e.client.GoOnline()
	waitPending(t, e.client)
	if !e.server(t, "/notes/2").Exists() {
		t.Fatal("queued write lost across the outage")
	}
}

// A snapshot callback may close the client: Close does not wait for the
// goroutine running it.
func TestCloseFromSnapshotCallback(t *testing.T) {
	e := newEnv(t, openRules)
	closed := make(chan struct{})
	var once sync.Once
	_, err := e.client.OnSnapshot(e.fs.Collection("notes").Query(), func(s Snapshot) {
		if !s.FromCache { // a server snapshot, delivered by a pump
			once.Do(func() {
				e.client.Close()
				close(closed)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close called from a snapshot callback did not return")
	}
}

// Close called from outside waits for every goroutine of the client, a
// pump busy in a snapshot callback included.
func TestCloseWaitsForGoroutines(t *testing.T) {
	e := newEnv(t, openRules)
	q := e.fs.Collection("notes").Query()
	inCallback, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if _, err := e.client.OnSnapshot(q, func(s Snapshot) {
		if !s.FromCache { // only a pump delivers a server snapshot here
			once.Do(func() { close(inCallback); <-release })
		}
	}); err != nil {
		t.Fatal(err)
	}
	var rec recorder // a second pump, idle in Next
	if _, err := e.client.OnSnapshot(q, rec.add); err != nil {
		t.Fatal(err)
	}
	<-inCallback // the first listener's server snapshot, on its pump
	closed := make(chan struct{})
	go func() {
		e.client.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a pump was running a callback")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the callback did")
	}
	e.client.mu.Lock()
	defer e.client.mu.Unlock()
	if e.client.running != 0 {
		t.Fatalf("%d client goroutines still running after Close", e.client.running)
	}
}

// FuzzImport: persisted state is bytes from outside the process. Import
// returns or fails, never panics, and state it accepted exports to bytes
// that Import accepts again.
func FuzzImport(f *testing.F) {
	region := core.NewRegion(core.Config{})
	f.Cleanup(region.Close)
	if _, err := region.CreateDatabase("app"); err != nil {
		f.Fatal(err)
	}
	if err := region.SetRules("app", openRules); err != nil {
		f.Fatal(err)
	}
	fs := firestore.NewUserClient(region, "app", &rules.Auth{UID: "alice"})
	offline := func() *Client {
		c := NewClient(fs)
		c.GoOffline()
		return c
	}
	seed := NewClient(fs)
	seed.Set("/notes/1", fields("n", 1, "s", "text", "m", map[string]any{"a": []any{1.5, true}}))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := seed.WaitForPendingWrites(ctx); err != nil {
		f.Fatal(err)
	}
	seed.GoOffline()
	seed.Set("/notes/2", fields("n", 2))
	seed.Delete("/notes/3")
	good := seed.Export()
	seed.Close()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := offline()
		if err := c.Import(data); err != nil {
			return
		}
		if err := offline().Import(c.Export()); err != nil {
			t.Fatalf("re-import of an accepted state's export: %v", err)
		}
	})
}

// TestLayering: this package is a layer over the Server SDK. Its
// non-test files may not reach past it into the service.
func TestLayering(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, banned := range []string{"core", "frontend", "backend", "query", "rules"} {
				if path == "firestore/internal/"+banned {
					t.Errorf("%s imports %s", f, path)
				}
			}
		}
	}
}
