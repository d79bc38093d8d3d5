// Package triggers implements Firestore's write triggers (§III-F): the
// developer defines handlers on database changes; the Backend persists a
// message describing each change through Spanner's transactional
// messaging system, and this service asynchronously removes and delivers
// it to the handler with the change delta — the stand-in for Google Cloud
// Functions.
package triggers

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"firestore/internal/backend"
	"firestore/internal/doc"
	"firestore/internal/spanner"
	"firestore/internal/truetime"
)

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
// triggering commit; returning an error is logged-and-dropped (delivery
// is at-least-once in production; the simulation is at-most-once under
// queue overflow, see spanner.Message).
type Handler func(ctx context.Context, ch Change) error

// trigger is one registration.
type trigger struct {
	// collection matches the changed document's collection ID ("ratings")
	// or full collection path ("/restaurants/one/ratings"); "*" matches
	// everything.
	collection string
	handler    Handler
}

// Service dispatches a database's change stream to registered handlers.
type Service struct {
	db   string
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu       sync.Mutex
	triggers []trigger

	errs, handled atomic.Int64
}

// New starts the trigger service for one database, consuming the
// Backend's transactional trigger topic from sp.
func New(sp *spanner.DB, dbID string) *Service {
	s := &Service{db: dbID, stop: make(chan struct{})}
	ch := sp.Subscribe(backend.TriggerTopic(dbID))
	s.wg.Add(1)
	go s.run(ch)
	return s
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
	s.triggers = append(s.triggers, trigger{collection: collection, handler: h})
	s.mu.Unlock()
}

// Handled returns the number of deliveries performed.
func (s *Service) Handled() int64 { return s.handled.Load() }

// Errors returns the number of handler errors observed.
func (s *Service) Errors() int64 { return s.errs.Load() }

func (s *Service) run(ch <-chan spanner.Message) {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case m := <-ch:
			s.dispatch(m)
		}
	}
}

// dispatch delivers one committed change. Its cost follows the
// triggers, not the writes: with none registered the payload is not
// touched, and the two documents are decoded only once some trigger
// matches the changed document's name.
func (s *Service) dispatch(m spanner.Message) {
	s.mu.Lock()
	regs := s.triggers // append-only: the prefix seen here never changes
	s.mu.Unlock()
	if len(regs) == 0 {
		return
	}
	name, _, err := backend.ChangeName(m.Payload)
	if err != nil {
		s.errs.Add(1)
		return
	}
	var change *Change
	for _, t := range regs {
		if !t.matches(name) {
			continue
		}
		if change == nil {
			_, old, new, err := backend.UnmarshalChange(m.Payload)
			if err != nil {
				s.errs.Add(1)
				return
			}
			change = &Change{DB: s.db, Name: name, Old: old, New: new, TS: m.CommitTS}
		}
		if err := t.handler(context.Background(), *change); err != nil {
			s.errs.Add(1)
		} else {
			s.handled.Add(1)
		}
	}
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
