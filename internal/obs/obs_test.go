package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wfq.shed", DB("alpha"))
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if again := r.Counter("wfq.shed", DB("alpha")); again != c {
		t.Fatal("same name+labels should return the same counter instance")
	}
	if other := r.Counter("wfq.shed", DB("beta")); other == c {
		t.Fatal("different labels must be a different instance")
	}

	g := r.Gauge("wfq.queue_depth", nil)
	g.Set(7.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}
	r.GaugeFunc("pool.tasks", nil, func() float64 { return 4 })

	h := r.Histogram("backend.commit", DB("alpha"))
	h.Record(3 * time.Millisecond)
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
}

func TestLabelKeyCanonical(t *testing.T) {
	a := Labels{"db": "x", "code": "OK"}
	b := Labels{"code": "OK", "db": "x"}
	if a.key() != b.key() {
		t.Fatalf("label key not canonical: %q vs %q", a.key(), b.key())
	}
	if want := `code="OK",db="x"`; a.key() != want {
		t.Fatalf("key = %q, want %q", a.key(), want)
	}
}

func TestPrometheusAndJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("rtcache.fanout", DB("mydb")).Add(42)
	r.Gauge("wfq.queue_depth", nil).Set(3)
	r.GaugeFunc("spanner.tablets", Labels{"pool": "0"}, func() float64 { return 2 })
	h := r.Histogram("backend.commit", DB("mydb"))
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`firestore_rtcache_fanout{db="mydb"} 42`,
		`firestore_wfq_queue_depth 3`,
		`firestore_spanner_tablets{pool="0"} 2`,
		`firestore_backend_commit_latency_seconds{db="mydb",quantile="0.99"}`,
		`firestore_backend_commit_latency_seconds_count{db="mydb"} 100`,
		"# TYPE firestore_backend_commit_latency_seconds summary",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, text)
		}
	}

	snap := r.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 42 {
		t.Fatalf("counters round-trip = %+v", back.Counters)
	}
	if len(back.Gauges) != 2 {
		t.Fatalf("gauges = %+v, want settable + func", back.Gauges)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 100 {
		t.Fatalf("histograms round-trip = %+v", back.Histograms)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", Labels{"db": `we"ird\db`}).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if want := `db="we\"ird\\db"`; !strings.Contains(buf.String(), want) {
		t.Fatalf("output missing escaped label %q:\n%s", want, buf.String())
	}
}

// TestConcurrentScrapeDuringRecording exercises the registry under -race:
// writers hammer counters/histograms on fresh and existing instances
// while readers scrape both export formats.
func TestConcurrentScrapeDuringRecording(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dbs := []string{"a", "b", "c"}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				db := dbs[n%len(dbs)]
				r.Counter("ops", DB(db)).Inc()
				r.Histogram("lat", DB(db)).Record(time.Duration(n%100) * time.Microsecond)
				r.Gauge("depth", DB(db)).Set(float64(n))
				r.GaugeFunc("fn", DB(db), func() float64 { return float64(n) })
			}
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < 50 || r.Counter("ops", DB("a")).Value() == 0 && time.Now().Before(deadline); i++ {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		_ = r.Snapshot()
	}
	close(stop)
	wg.Wait()

	snap := r.Snapshot()
	var total int64
	for _, c := range snap.Counters {
		total += c.Value
	}
	if total == 0 {
		t.Fatal("no counter increments observed")
	}
}

// TestCardinalityCap verifies the label-cardinality guard: the first
// MaxCardinality label sets of a family get their own instance, the
// next ones fold into the shared "other" bucket instead of minting
// unbounded instances, and existing instances keep working.
func TestCardinalityCap(t *testing.T) {
	r := NewRegistry()
	db := func(i int) Labels { return DB(fmt.Sprintf("db%d", i)) }
	first := r.Counter("reqs", db(0))
	for i := 0; i < MaxCardinality; i++ {
		r.Counter("reqs", db(i)).Inc()
		r.Gauge("depth", db(i))
		r.Histogram("lat", db(i))
	}

	// The 257th and 258th distinct label sets share one folded instance.
	d := r.Counter("reqs", db(MaxCardinality))
	e := r.Counter("reqs", db(MaxCardinality+1))
	if d != e {
		t.Fatal("overflow label sets should share the other bucket")
	}
	if d == first {
		t.Fatal("other bucket must be a fresh instance")
	}
	d.Inc()
	e.Inc()
	if got := r.Counter("reqs", Labels{"db": "other"}).Value(); got != 2 {
		t.Fatalf("other bucket = %d, want 2", got)
	}

	// Existing instances are still addressable after overflow.
	if again := r.Counter("reqs", db(0)); again != first || first.Value() != 1 {
		t.Fatal("pre-overflow instance lost")
	}

	// The snapshot shows the folded labels, not the runaway values.
	runaway := db(MaxCardinality)["db"]
	for _, cs := range r.Snapshot().Counters {
		if cs.Name == "reqs" && cs.Labels["db"] == runaway {
			t.Fatalf("runaway label leaked into snapshot: %v", cs.Labels)
		}
	}

	// Other metric kinds share the guard.
	if g1, g2 := r.Gauge("depth", DB("x")), r.Gauge("depth", DB("y")); g1 != g2 {
		t.Fatal("gauge overflow should fold")
	}
	if h1, h2 := r.Histogram("lat", DB("x")), r.Histogram("lat", DB("y")); h1 != h2 {
		t.Fatal("histogram overflow should fold")
	}

	// Each family is capped independently: a fresh name is unaffected.
	if n1, n2 := r.Counter("fresh", DB("p")), r.Counter("fresh", DB("q")); n1 == n2 {
		t.Fatal("fresh family should not fold below the cap")
	}
}

// TestVec: a Vec is the family's own index, not a second store — With
// and Registry.Counter(name, labels) return one instance, an empty value
// leaves its label off, a seen tuple allocates nothing, concurrent With
// of new and seen tuples is safe (run under -race), and the cardinality
// cap folds the 257th value into "other".
func TestVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs", "db", "code")
	if again := r.CounterVec("reqs", "db", "code"); again != v {
		t.Fatal("declaring a family twice must return one Vec")
	}
	c := v.With("app", "OK")
	if c != r.Counter("reqs", Labels{"code": "OK", "db": "app"}) {
		t.Fatal("With and Registry.Counter must resolve to the same instance")
	}
	if v.With("", "OK") != r.Counter("reqs", Labels{"code": "OK"}) {
		t.Fatal(`an empty value must leave its label off, as DB("") does`)
	}
	h := r.HistogramVec("lat", "db")
	h.With("app")
	warm := func() {
		v.With("app", "OK").Inc()
		r.HistogramVec("lat", "db").With("app").Record(time.Microsecond)
	}
	if got := testing.AllocsPerRun(100, warm); got != 0 {
		t.Fatalf("warm With = %v allocations, want 0", got)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.With(fmt.Sprintf("db%d", i%40), "OK").Inc()
				r.CounterVec("reqs", "db", "code").With("app", "OK").Inc()
				r.GaugeVec("depth", "db").With(fmt.Sprintf("db%d", g)).Set(float64(i))
			}
		}(g)
	}
	wg.Wait()
	var total int64
	dbs := map[string]bool{}
	v.Each(func(values []string, c *Counter) {
		total += c.Value()
		dbs[values[0]] = true
	})
	if want := int64(101 + 2*8*200); total != want || len(dbs) != 42 {
		t.Fatalf("Each saw total %d over %d dbs, want %d over 42 (db0..db39, app, none)", total, len(dbs), want)
	}

	for i := 0; i < MaxCardinality; i++ {
		h.With(fmt.Sprintf("db%d", i))
	}
	if other := h.With("one-too-many"); other != h.With("and-another") || other != r.Histogram("lat", DB("other")) {
		t.Fatal(`past MaxCardinality new values must share the "other" instance`)
	}
	if h.With("app") == h.With("one-too-many") {
		t.Fatal("an instance minted before the cap must survive it")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("declaring a family with a second key list must panic")
		}
	}()
	r.CounterVec("reqs", "db")
}
