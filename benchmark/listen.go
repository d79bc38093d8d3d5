package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"firestore/firestore"
	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/index"
)

const messageCollection = "messages"

// roomTS serves every listener's "room == r order by ts desc limit 20".
var roomTS = index.CompositeDef(messageCollection,
	index.Field{Path: "room", Dir: index.Ascending},
	index.Field{Path: "ts", Dir: index.Descending})

// notifyTimeout bounds how long a drive waits, after its last write, for
// the listeners to hear of every write. Notifications normally arrive
// within a heartbeat (2 ms); one that has not arrived by then is lost.
const notifyTimeout = 500 * time.Millisecond

// listenBench is the fan-out workload: C long-lived connections, each
// multiplexing one listener per room, and one writer in an open loop.
type listenBench struct {
	in    *listenInputs
	rate  int
	e     *env
	col   *firestore.CollectionRef
	conns []*listenConn
	next  int // index of the next generated write
	// origin anchors the nanosecond stamps in recv.
	origin time.Time
}

// listenConn is one connection and the client-side state its consumer
// goroutine keeps: each room's current result set and, per write, when
// a snapshot containing it arrived.
type listenConn struct {
	conn   *frontend.Conn
	rooms  map[int64]int // target ID → room
	recv   []atomic.Int64
	lost   map[string]bool // documents whose notification never arrived here
	done   chan struct{}
	mu     sync.Mutex
	result []map[string]*doc.Document // per room
}

func newListen(seed int64, sz sizes, window time.Duration) *listenBench {
	// Warm-up, window and traced pass are 3/20 + 1 + 1/4 of the window;
	// generate twice that many writes so no drive runs out.
	writes := int(float64(sz.listenRate)*window.Seconds()*3) + 64
	return &listenBench{in: genListen(seed, sz.messages, sz.rooms, writes), rate: sz.listenRate}
}

func (b *listenBench) inputsSHA() string    { return b.in.sha }
func (b *listenBench) env() *env            { return b.e }
func (b *listenBench) userBytes() int       { return 0 }
func (b *listenBench) liveUserBytes() int64 { return 0 }

func roomQuery(room int) querySpec {
	return querySpec{collection: messageCollection, eq: []eqPred{{"room", int64(room)}}, orderBy: "ts", desc: true, limit: 20}
}

func (b *listenBench) setUp(ctx context.Context) (int, time.Duration, error) {
	e, err := openEnv(engineMem, "", "")
	if err != nil {
		return 0, 0, err
	}
	b.e = e
	b.col = e.client.Collection(messageCollection)
	b.next = 0
	b.origin = time.Now()
	if err := e.region.AddCompositeIndex(ctx, dbID, roomTS); err != nil {
		return 0, 0, err
	}
	load, err := bulkLoad(ctx, e.client, b.in.seeded, func(i int) (*firestore.DocumentRef, map[string]any) {
		return b.col.Doc(fmt.Sprintf("m%06d", i)), messageData(i%b.in.rooms, int64(i))
	})
	if err != nil {
		return 0, 0, err
	}
	b.conns = nil
	for c := 0; c < clients(); c++ {
		lc := &listenConn{
			conn:   e.region.NewConn(dbID, backend.Principal{Privileged: true}),
			rooms:  map[int64]int{},
			recv:   make([]atomic.Int64, len(b.in.room)),
			lost:   map[string]bool{},
			done:   make(chan struct{}),
			result: make([]map[string]*doc.Document, b.in.rooms),
		}
		b.conns = append(b.conns, lc)
		for r := 0; r < b.in.rooms; r++ {
			id, err := lc.conn.Listen(ctx, roomQuery(r).internal())
			if err != nil {
				return 0, 0, err
			}
			lc.rooms[id] = r
		}
		go lc.consume(b.origin)
	}
	return b.in.seeded, load, nil
}

// consume drains the connection's snapshots into the per-room result
// sets, stamping the arrival of every generated write it sees.
func (lc *listenConn) consume(origin time.Time) {
	defer close(lc.done)
	for ev := range lc.conn.Events() {
		now := int64(time.Since(origin))
		room := lc.rooms[ev.TargetID]
		lc.mu.Lock()
		if ev.Initial || lc.result[room] == nil {
			lc.result[room] = map[string]*doc.Document{}
		}
		for _, docs := range [][]*doc.Document{ev.Added, ev.Modified} {
			for _, d := range docs {
				lc.result[room][d.Name.String()] = d
				if id := d.Name.ID(); id[0] == 'w' {
					if i, err := strconv.Atoi(id[1:]); err == nil && i < len(lc.recv) {
						lc.recv[i].CompareAndSwap(0, now)
					}
				}
			}
		}
		for _, n := range ev.Removed {
			delete(lc.result[room], n.String())
		}
		lc.mu.Unlock()
	}
}

// drive paces d's worth of writes at the fixed rate, then waits for the
// listeners to hear about the last of them. Both latencies of a write
// run from when it was due: write to its commit ack, read (notification)
// to the moment the last of its room's listeners — one per connection —
// holds a snapshot that has it. The region forwards a write to its
// listeners before it acknowledges the commit, so ack → last listener is
// near zero or negative; it is kept as the per-layer notify.after_ack_*.
func (b *listenBench) drive(ctx context.Context, d time.Duration) *window {
	n := min(int(d.Seconds()*float64(b.rate)), len(b.in.room)-b.next)
	first := b.next
	w := &window{write: make([]time.Duration, 0, n), read: make([]time.Duration, 0, n), afterAck: make([]time.Duration, 0, n)}
	// dueAt and ackAt stamp each acknowledged write (ackAt 0 = failed).
	dueAt, ackAt := make([]int64, n), make([]int64, n)
	resources(w, func() {
		w.late = pace(ctx, n, time.Second/time.Duration(b.rate), func(i int, due time.Time) {
			idx := first + i
			err := b.col.Doc(b.docID(idx)).Set(request(ctx, 0, idx), messageData(int(b.in.room[idx]), int64(1_000_000+idx)))
			done := time.Now()
			w.attempted++
			if err != nil {
				w.failed++
				return
			}
			dueAt[i], ackAt[i] = int64(due.Sub(b.origin)), int64(done.Sub(b.origin))
			w.write = append(w.write, done.Sub(due))
		})
	})
	b.next += n

	deadline := time.Now().Add(notifyTimeout)
	for i := 0; i < n; i++ {
		if ackAt[i] == 0 {
			continue
		}
		var last int64
		heard := true
		for _, lc := range b.conns {
			at := lc.recv[first+i].Load()
			for at == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
				at = lc.recv[first+i].Load()
			}
			if at == 0 {
				lc.lost[b.docID(first+i)] = true
				heard = false
			}
			last = max(last, at)
		}
		if !heard {
			w.lost++ // an acknowledged write some listener never heard of
			continue
		}
		w.read = append(w.read, time.Duration(last-dueAt[i]))
		w.afterAck = append(w.afterAck, time.Duration(max(last-ackAt[i], 0)))
	}
	return w
}

func (b *listenBench) docID(write int) string { return fmt.Sprintf("w%07d", write) }

// check compares every listener's final result set with the query run
// again: same documents, same order, same versions. As the YCSB check
// builds its shadow state from acknowledged writes only, this one builds
// each listener's expected window from delivered notifications only: a
// document whose notification never reached a connection (counted in
// notify.lost) is left out of what that connection should hold.
func (b *listenBench) check(ctx context.Context) error {
	n, err := countDocs(ctx, b.e.client, messageCollection)
	if err != nil {
		return err
	}
	if want := int64(b.in.seeded + b.next); n != want {
		return fmt.Errorf("listen_fanout: %d documents, generator wrote %d", n, want)
	}
	for r := 0; r < b.in.rooms; r++ {
		spec := roomQuery(r)
		iq := spec.internal()
		for c, lc := range b.conns {
			spec.limit = 20 + len(lc.lost)
			all, err := spec.sdk(b.e.client).GetAll(ctx)
			if err != nil {
				return err
			}
			var want []*firestore.DocumentSnapshot
			for _, s := range all {
				if !lc.lost[s.Ref.ID()] && len(want) < 20 {
					want = append(want, s)
				}
			}
			lc.mu.Lock()
			got := make([]*doc.Document, 0, len(lc.result[r]))
			for _, d := range lc.result[r] {
				got = append(got, d)
			}
			lc.mu.Unlock()
			sort.Slice(got, func(i, j int) bool { return iq.Compare(got[i], got[j]) < 0 })
			if len(got) != len(want) {
				return fmt.Errorf("listen_fanout: conn %d room %d holds %d documents, the query returns %d", c, r, len(got), len(want))
			}
			for i := range got {
				if got[i].Name.String() != want[i].Ref.Path() || !time.Unix(0, int64(got[i].UpdateTime)).Equal(want[i].UpdateTime) {
					return fmt.Errorf("listen_fanout: conn %d room %d position %d is %s, the query has %s", c, r, i, got[i].Name, want[i].Ref.Path())
				}
			}
		}
	}
	return nil
}

func (b *listenBench) tearDown() {
	for _, lc := range b.conns {
		lc.conn.Close()
		<-lc.done
	}
	b.conns = nil
	b.e.destroy()
}

// probeInputs samples generated writes (each a brand-new message, so no
// previous version) and the room queries the listeners hold.
func (b *listenBench) probeInputs(n int) probeInputs {
	in := probeInputs{collection: messageCollection, composites: []index.Definition{roomTS}}
	for i := 0; i < n; i++ {
		room := int(b.in.room[i%len(b.in.room)])
		in.writes = append(in.writes, probeWrite{
			id:   fmt.Sprintf("p%07d", i),
			data: messageData(room, int64(2_000_000+i)),
		})
		in.queries = append(in.queries, roomQuery(room))
	}
	return in
}
