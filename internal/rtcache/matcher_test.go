package rtcache

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/query"
	"firestore/internal/truetime"
)

// censusMatch is the reference the matcher's candidates must agree with:
// every registered query evaluated against every mutation.
func censusMatch(subs map[int64]*subscription, db string, muts []Mutation, ts truetime.Timestamp) map[int64][]Update {
	out := map[int64][]Update{}
	for _, s := range subs {
		if s.db != db || ts <= s.afterTS {
			continue
		}
		for _, m := range muts {
			if u, ok := matchUpdate(s.q, m, ts); ok {
				out[s.subID] = append(out[s.subID], u)
			}
		}
	}
	return out
}

type tallySubscriber struct{ watermarks atomic.Int64 }

func (*tallySubscriber) OnUpdate(int, int64, Update) {}
func (n *tallySubscriber) OnWatermark(int, int64, truetime.Timestamp) {
	n.watermarks.Add(1)
}
func (*tallySubscriber) OnReset(int, int64) {}

// TestCandidatesMatchCensus: over random queries (equality on values that
// are equal across representations — 1 and 1.0, -0 and 0, NaN, null,
// arrays, maps, integers past 2^53 — array-contains, inequality only, no
// predicate) and random mutations, matching a range's candidates queues
// exactly the updates a walk over every subscription finds, each
// subscription's in mutation order. Unsubscribes and an out-of-sync reset
// keep the index in step.
func TestCandidatesMatchCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	values := []doc.Value{
		doc.Int(1), doc.Double(1), doc.Int(0), doc.Double(math.Copysign(0, -1)), doc.Double(math.NaN()),
		doc.Null(), doc.String("a"), doc.Bool(true), doc.Array(doc.Int(1)), doc.Array(doc.Double(1)), doc.Array(),
		doc.Map(map[string]doc.Value{"x": doc.Int(1)}), doc.Int(1<<53 + 1), doc.Double(1 << 53), doc.Reference("/c1/a"),
	}
	paths := []doc.FieldPath{"a", "b", "m.x"}
	colls := []string{"/c1", "/c2", "/c1/d/sub"}
	dbs := []string{"db1", "db2"}
	value := func() doc.Value { return values[rng.Intn(len(values))] }
	randDoc := func(name doc.Name) *doc.Document {
		if rng.Intn(4) == 0 {
			return nil
		}
		fields := map[string]doc.Value{}
		for _, p := range paths {
			if rng.Intn(3) == 0 {
				continue
			}
			if p == "m.x" {
				fields["m"] = doc.Map(map[string]doc.Value{"x": value()})
			} else {
				fields[string(p)] = value()
			}
		}
		return doc.New(name, fields)
	}
	randQuery := func() *query.Query {
		q := &query.Query{Collection: doc.MustCollection(colls[rng.Intn(len(colls))])}
		for n := rng.Intn(3); n > 0; n-- {
			p := query.Predicate{Path: paths[rng.Intn(len(paths))], Value: value()}
			switch rng.Intn(4) {
			case 0, 1:
				p.Op = query.Eq
			case 2:
				p.Op = query.ArrayContains
			default:
				p.Op, p.Value = query.Gt, doc.Int(0)
			}
			q.Predicates = append(q.Predicates, p)
		}
		return q
	}

	c := New(Config{Clock: truetime.NewSystem(10 * time.Microsecond), Ranges: 1, HeartbeatEvery: time.Hour})
	t.Cleanup(c.Close)
	r := c.ranges[0]
	sub := &tallySubscriber{}
	subscribe := func() {
		afterTS := truetime.Timestamp(0)
		if rng.Intn(8) == 0 {
			afterTS = truetime.Max
		}
		c.Subscribe(sub, dbs[rng.Intn(len(dbs))], randQuery(), afterTS, 0)
	}
	for i := 0; i < 200; i++ {
		subscribe()
	}
	ts := truetime.Timestamp(1)
	for round := 0; round < 3000; round++ {
		switch {
		case round%500 == 250:
			r.markOutOfSync()
			for i := 0; i < 200; i++ {
				subscribe()
			}
		case round%10 == 0:
			r.mu.Lock()
			var victims []int64
			for id := range r.subs {
				if rng.Intn(4) == 0 {
					victims = append(victims, id)
				}
			}
			r.mu.Unlock()
			for _, id := range victims {
				c.Unsubscribe(sub, id)
				subscribe()
			}
		}
		db := dbs[rng.Intn(len(dbs))]
		var muts []Mutation
		for n := 1 + rng.Intn(3); n > 0; n-- {
			name := doc.MustName(fmt.Sprintf("%s/d%d", colls[rng.Intn(len(colls))], rng.Intn(5)))
			muts = append(muts, Mutation{Name: name, Old: randDoc(name), New: randDoc(name)})
		}
		ts++
		r.mu.Lock()
		want := censusMatch(r.subs, db, muts, ts)
		n := r.matchLocked(db, muts, ts)
		got := map[int64][]Update{}
		for _, e := range r.outbox {
			got[e.subID] = append(got[e.subID], e.u)
		}
		clear(r.outbox)
		r.outbox = r.outbox[:0]
		r.mu.Unlock()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d, %v: candidates matched\n%v\nthe census\n%v", round, muts, got, want)
		}
		total := 0
		for _, us := range want {
			total += len(us)
		}
		if n != total {
			t.Fatalf("round %d: matchLocked counts %d matches, queued %d", round, n, total)
		}
	}
}

// TestHeartbeatTickAllocs: a heartbeat tick over eight ranges, each
// advancing its watermark to a subscriber, allocates nothing.
func TestHeartbeatTickAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts mean nothing under -race")
	}
	c := New(Config{Clock: truetime.NewSystem(10 * time.Microsecond), Ranges: 8, HeartbeatEvery: time.Hour})
	t.Cleanup(c.Close)
	sub := &tallySubscriber{}
	covered := map[int]bool{}
	for i := 0; len(covered) < 8; i++ {
		q := &query.Query{Collection: doc.MustCollection(fmt.Sprintf("/c%d", i))}
		_, rid := c.Subscribe(sub, "db1", q, 0, 0)
		covered[rid] = true
	}
	ctx := context.Background()
	tick := func() {
		time.Sleep(50 * time.Microsecond) // TrueTime moves past the last watermark
		c.tick(ctx)
	}
	tick()
	tick()
	before := sub.watermarks.Load()
	if got := testing.AllocsPerRun(100, tick); got != 0 {
		t.Fatalf("a heartbeat tick over 8 ranges allocates %.1f times, want 0", got)
	}
	if delivered := sub.watermarks.Load() - before; delivered < 100*8 {
		t.Fatalf("%d watermarks delivered over 101 ticks, want every range's every tick", delivered)
	}
}
