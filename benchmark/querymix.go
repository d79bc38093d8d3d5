package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"firestore/firestore"
	"firestore/internal/doc"
	"firestore/internal/index"
)

const restaurantCollection = "restaurants"

// cityRating is the one composite index the workload creates.
var cityRating = index.CompositeDef(restaurantCollection,
	index.Field{Path: "city", Dir: index.Ascending},
	index.Field{Path: "avgRating", Dir: index.Descending})

// queryMixBench is the wide-document workload: 70% queries over four
// shapes, 20% single-field updates, 10% full-document sets and deletes.
type queryMixBench struct {
	in   *qmInputs
	seed int64

	e    *env
	refs []*firestore.DocumentRef
	next []int
	// shadow[i] is document i's state after its owner's acked ops.
	shadow []restaurant
}

func newQueryMix(seed int64, sz sizes) *queryMixBench {
	return &queryMixBench{in: genQueryMix(seed, sz.restaurants, clients(), sz.opsPerClient), seed: seed}
}

func (b *queryMixBench) inputsSHA() string    { return b.in.sha }
func (b *queryMixBench) env() *env            { return b.e }
func (b *queryMixBench) tearDown()            { b.e.destroy() }
func (b *queryMixBench) userBytes() int       { return 0 }
func (b *queryMixBench) liveUserBytes() int64 { return 0 }

func (b *queryMixBench) setUp(ctx context.Context) (int, time.Duration, error) {
	e, err := openEnv(engineMem, "", "")
	if err != nil {
		return 0, 0, err
	}
	b.e = e
	if err := e.region.AddCompositeIndex(ctx, dbID, cityRating); err != nil {
		return 0, 0, err
	}
	col := e.client.Collection(restaurantCollection)
	b.refs = make([]*firestore.DocumentRef, b.in.docs)
	b.shadow = make([]restaurant, b.in.docs)
	for i := range b.refs {
		b.refs[i] = col.Doc(restaurantID(int32(i)))
		b.shadow[i] = restaurant{exists: true, ratings: int32(i % 1000)}
	}
	b.next = make([]int, clients())
	load, err := bulkLoad(ctx, e.client, b.in.docs, func(i int) (*firestore.DocumentRef, map[string]any) {
		return b.refs[i], restaurantData(int32(i), b.shadow[i])
	})
	return b.in.docs, load, err
}

func (b *queryMixBench) drive(ctx context.Context, d time.Duration) *window {
	return closedLoop(ctx, d, b.next, b.do)
}

// spec renders a generated query op.
func (op qmOp) spec() querySpec {
	s := querySpec{collection: restaurantCollection, eq: []eqPred{{"city", cities[op.city]}}}
	switch op.kind {
	case qmEqLimit:
		s.limit = 20
	case qmZigZag:
		s.eq = append(s.eq, eqPred{"category", categories[op.cat]})
	case qmComposite:
		s.orderBy, s.desc, s.limit = "avgRating", true, 20
	}
	return s
}

func (b *queryMixBench) do(ctx context.Context, c, seq int) (opKind, error) {
	ops := b.in.ops[c]
	if seq >= len(ops) {
		// Unlike YCSB the sequence cannot wrap: it tracks which documents
		// exist, so replaying it would update deleted ones.
		return opWrite, fmt.Errorf("query_mix: client %d exhausted its %d generated ops", c, len(ops))
	}
	op := ops[seq]
	if op.kind.isQuery() {
		q := op.spec().sdk(b.e.client)
		if op.kind == qmCount {
			_, err := q.NewAggregationQuery().WithCount("n").Get(ctx)
			return opRead, err
		}
		_, err := q.GetAll(ctx)
		return opRead, err
	}
	// Writes touch only documents this client owns, so the shadow entry
	// has a single writer.
	st := b.shadow[op.doc]
	var err error
	switch op.kind {
	case qmUpdate:
		st.ratings = op.val
		err = b.refs[op.doc].Update(ctx, restaurantData(op.doc, st))
	case qmSet:
		st = restaurant{exists: true, rev: op.val, ratings: st.ratings}
		err = b.refs[op.doc].Set(ctx, restaurantData(op.doc, st))
	case qmDelete:
		st.exists = false
		err = b.refs[op.doc].Delete(ctx)
	}
	if err == nil {
		b.shadow[op.doc] = st
	}
	return opWrite, err
}

func restaurantDoc(i int32, st restaurant) *doc.Document {
	return doc.New(doc.MustName("/"+restaurantCollection+"/"+restaurantID(i)), toFields(restaurantData(i, st)))
}

// check compares the collection with the shadow state — the document
// count, then a sample of documents field by field — and a sample of the
// generated queries with a brute-force Query.Matches filter over the
// shadow documents.
func (b *queryMixBench) check(ctx context.Context) error {
	var live []*doc.Document
	for i, st := range b.shadow {
		if st.exists {
			live = append(live, restaurantDoc(int32(i), st))
		}
	}
	n, err := countDocs(ctx, b.e.client, restaurantCollection)
	if err != nil {
		return err
	}
	if n != int64(len(live)) {
		return fmt.Errorf("query_mix: %d documents, shadow state has %d", n, len(live))
	}
	rng := rand.New(rand.NewSource(b.seed + 99))
	for i := 0; i < min(1000, b.in.docs); i++ {
		j := rng.Intn(b.in.docs)
		snap, err := b.refs[j].Get(ctx)
		if err != nil {
			return err
		}
		st := b.shadow[j]
		if snap.Exists() != st.exists {
			return fmt.Errorf("query_mix: %s exists=%v, shadow says %v", b.refs[j].Path(), snap.Exists(), st.exists)
		}
		if !st.exists {
			continue
		}
		want := restaurantDoc(int32(j), st)
		got := doc.New(want.Name, toFields(snap.Data()))
		if !got.Equal(want) {
			return fmt.Errorf("query_mix: %s differs from its owner's last acked write", b.refs[j].Path())
		}
	}
	ops := b.in.ops[0]
	for i, checked := 0, 0; i < len(ops) && checked < 40; i++ {
		if !ops[i].kind.isQuery() {
			continue
		}
		checked++
		if err := b.checkQuery(ctx, ops[i], live); err != nil {
			return err
		}
	}
	return nil
}

func (b *queryMixBench) checkQuery(ctx context.Context, op qmOp, live []*doc.Document) error {
	spec := op.spec()
	iq := spec.internal()
	var want []*doc.Document
	for _, d := range live {
		if iq.Matches(d) {
			want = append(want, d)
		}
	}
	if op.kind == qmCount {
		res, err := spec.sdk(b.e.client).NewAggregationQuery().WithCount("n").Get(ctx)
		if err != nil {
			return err
		}
		if got, _ := res["n"].(int64); got != int64(len(want)) {
			return fmt.Errorf("query_mix: COUNT(%s) = %d, brute force finds %d", iq, got, len(want))
		}
		return nil
	}
	sort.Slice(want, func(i, j int) bool { return iq.Compare(want[i], want[j]) < 0 })
	if spec.limit > 0 && len(want) > spec.limit {
		want = want[:spec.limit]
	}
	got, err := spec.sdk(b.e.client).GetAll(ctx)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("query_mix: %s returned %d documents, brute force finds %d", iq, len(got), len(want))
	}
	for i := range got {
		if got[i].Ref.Path() != want[i].Name.String() {
			return fmt.Errorf("query_mix: %s result %d is %s, brute force has %s", iq, i, got[i].Ref.Path(), want[i].Name)
		}
	}
	return nil
}

// probeInputs samples every k-th generated write (updates and sets, with
// the version each replaced) and the three document-returning query
// shapes; COUNT takes the aggregation path and is not probed.
func (b *queryMixBench) probeInputs(n int) probeInputs {
	in := probeInputs{collection: restaurantCollection, composites: []index.Definition{cityRating}}
	ops := b.in.ops[0]
	for i := 0; i < len(ops) && (len(in.writes) < n || len(in.queries) < 3); i++ {
		op := ops[i]
		switch {
		case op.kind.isQuery():
			if len(in.queries) < 3 && int(op.kind) == len(in.queries) {
				in.queries = append(in.queries, op.spec())
			}
		case op.kind != qmDelete && len(in.writes) < n:
			old := restaurant{exists: true, ratings: int32(op.doc % 1000)}
			cur := old
			if op.kind == qmUpdate {
				cur.ratings = op.val
			} else {
				cur.rev = op.val
			}
			in.writes = append(in.writes, probeWrite{
				id:   restaurantID(op.doc),
				data: restaurantData(op.doc, cur),
				old:  restaurantData(op.doc, old),
			})
		}
	}
	return in
}
