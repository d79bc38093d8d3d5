// Package triggers implements Firestore's write triggers (§III-F): the
// developer defines handlers on database changes, and this service
// delivers each committed change to them asynchronously with the change
// delta — the stand-in for Google Cloud Functions. The Backend hands the
// service the very mutations its Accept hands the Real-time Cache, once
// the commit has its timestamp. The queue between the two lives in
// memory: unlike the paper's transactional messages it is not durable,
// and a change outruns a full queue by being dropped (Dropped counts it).
package triggers

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"firestore/internal/doc"
	"firestore/internal/fault"
	"firestore/internal/rtcache"
	"firestore/internal/truetime"
)

// queueLen bounds the commits waiting for dispatch. A commit never waits
// for a handler, so the queue absorbs a burst of writes behind a slow one
// and drops what does not fit (Dropped).
const queueLen = 4096

// Change is the delta a handler receives.
type Change struct {
	DB   string
	Name doc.Name
	Old  *doc.Document // nil for creates
	New  *doc.Document // nil for deletes
	TS   truetime.Timestamp
}

// Kind classifies the change.
func (c Change) Kind() string {
	switch {
	case c.Old == nil:
		return "create"
	case c.New == nil:
		return "delete"
	default:
		return "update"
	}
}

// Handler processes one change. Handlers run asynchronously after the
// triggering commit; returning an error is counted and dropped. Delivery
// is at-least-once in production; here a change is lost if the queue is
// full or the commit's outcome was unknown to the Backend.
type Handler func(ctx context.Context, ch Change) error

// trigger is one registration.
type trigger struct {
	// collection matches the changed document's collection ID ("ratings")
	// or full collection path ("/restaurants/one/ratings"); "*" matches
	// everything.
	collection string
	handler    Handler
}

// commit is one queued hand-off: a commit's mutations, shared with the
// Real-time Cache and the Backend's memo and never modified.
type commit struct {
	ts   truetime.Timestamp
	muts []rtcache.Mutation
}

// Service dispatches a database's committed changes to registered
// handlers. Its queue and goroutine start with the first registration.
type Service struct {
	db    string
	queue atomic.Pointer[chan commit] // nil until a trigger is registered
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	mu       sync.Mutex
	triggers []trigger

	errs, handled, dropped atomic.Int64
}

// New returns the trigger service of database dbID.
func New(dbID string) *Service {
	return &Service{db: dbID, stop: make(chan struct{})}
}

// Close stops dispatching.
func (s *Service) Close() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// OnWrite registers a handler for changes to documents in collections
// matching the given collection ID, collection path, or "*".
func (s *Service) OnWrite(collection string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.triggers = append(s.triggers, trigger{collection: collection, handler: h})
	if s.queue.Load() == nil {
		q := make(chan commit, queueLen)
		s.wg.Add(1)
		go s.run(q)
		s.queue.Store(&q)
	}
}

// Handled returns the number of deliveries performed.
func (s *Service) Handled() int64 { return s.handled.Load() }

// Errors returns the number of handler errors observed.
func (s *Service) Errors() int64 { return s.errs.Load() }

// Dropped returns the number of commits lost to a full queue.
func (s *Service) Dropped() int64 { return s.dropped.Load() }

// Deliver queues a commit's mutations, committed at ts, for the
// registered triggers. With none registered it does nothing. It never
// blocks the commit: a full queue drops the change.
func (s *Service) Deliver(ctx context.Context, ts truetime.Timestamp, muts []rtcache.Mutation) {
	q := s.queue.Load()
	if q == nil {
		return
	}
	copies := 1
	switch fault.Decide(ctx, fault.TriggersDeliver).Kind {
	case fault.KindDrop:
		copies = 0
	case fault.KindDuplicate:
		// At-least-once redelivery: handlers must tolerate the same
		// (name, commit-TS) change arriving twice.
		copies = 2
	}
	for i := 0; i < copies; i++ {
		select {
		case *q <- commit{ts: ts, muts: muts}:
		default:
			s.dropped.Add(1)
		}
	}
}

func (s *Service) run(q <-chan commit) {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case c := <-q:
			s.dispatch(c)
		}
	}
}

// dispatch delivers one commit's changes. Each handler call gets its own
// copy of the documents: the commit's are shared with the Real-time Cache
// and the Backend's memo.
func (s *Service) dispatch(c commit) {
	s.mu.Lock()
	regs := s.triggers // append-only: the prefix seen here never changes
	s.mu.Unlock()
	for _, m := range c.muts {
		for _, t := range regs {
			if !t.matches(m.Name) {
				continue
			}
			change := Change{DB: s.db, Name: m.Name, Old: clone(m.Old), New: clone(m.New), TS: c.ts}
			if err := t.handler(context.Background(), change); err != nil {
				s.errs.Add(1)
			} else {
				s.handled.Add(1)
			}
		}
	}
}

func clone(d *doc.Document) *doc.Document {
	if d == nil {
		return nil
	}
	return d.Clone()
}

func (t trigger) matches(name doc.Name) bool {
	if t.collection == "*" {
		return true
	}
	coll := name.Collection()
	if strings.HasPrefix(t.collection, "/") {
		return coll.String() == t.collection
	}
	return coll.ID() == t.collection
}
