// Package firestore is the Server SDK (§III-D): the client library used
// by applications running in privileged environments. It maps Firestore's
// data model to Go values and provides document references, collection
// references, a chainable query builder, write batches, transactions with
// automatic retry and backoff, and snapshot listeners over real-time
// queries. Package mobile is an offline cache and mutation queue layered
// over a *Client, so there is one client core (DESIGN.md "Client SDKs").
//
// A quickstart:
//
//	region := core.NewRegion(core.Config{})
//	region.CreateDatabase("my-app")
//	client := firestore.NewClient(region, "my-app")
//	ref := client.Collection("restaurants").Doc("one")
//	ref.Set(ctx, map[string]any{"name": "Burger Garden", "avgRating": 4.5})
//	snap, _ := ref.Get(ctx)
package firestore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/frontend"
	"firestore/internal/rules"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

// maxRPCAttempts bounds status.Retry's tries of one idempotent RPC: a
// read, a blind write, a batch, a query page, an aggregation.
const maxRPCAttempts = 5

// Client is a handle to one Firestore database.
type Client struct {
	region *core.Region
	dbID   string
	p      backend.Principal
	rng    atomic.Int64

	// The client's listeners share one long-lived connection, so the
	// frontend advances them to one consistent timestamp (§IV-D4); it is
	// nil while there are none. demuxDone closes when the goroutine
	// routing its events by target has exited.
	mu        sync.Mutex
	conn      *frontend.Conn
	demuxDone chan struct{}
	iters     map[int64]*QuerySnapshotIterator
}

// NewClient returns a privileged (server-side) client for the database.
func NewClient(region *core.Region, dbID string) *Client {
	c := &Client{region: region, dbID: dbID, p: backend.Principal{Privileged: true}}
	c.rng.Store(time.Now().UnixNano())
	return c
}

// NewUserClient returns a client acting as an authenticated end user;
// the database's security rules apply to every operation. End-user
// devices wrap one in a mobile.Client.
func NewUserClient(region *core.Region, dbID string, auth *rules.Auth) *Client {
	c := &Client{region: region, dbID: dbID, p: backend.Principal{Auth: auth}}
	c.rng.Store(time.Now().UnixNano())
	return c
}

// Collection returns a reference to a top-level collection or a
// collection path like "restaurants/one/ratings".
func (c *Client) Collection(path string) *CollectionRef {
	cp, err := doc.ParseCollection("/" + strings.TrimPrefix(path, "/"))
	return &CollectionRef{c: c, path: cp, err: err}
}

// Doc returns a reference from a full document path like
// "restaurants/one".
func (c *Client) Doc(path string) *DocumentRef {
	n, err := doc.ParseName("/" + strings.TrimPrefix(path, "/"))
	return &DocumentRef{c: c, name: n, err: err}
}

// CollectionRef refers to a collection.
type CollectionRef struct {
	c    *Client
	path doc.CollectionPath
	err  error
}

// Path returns the collection's full path.
func (cr *CollectionRef) Path() string { return cr.path.String() }

// Doc returns a reference to the named document in the collection.
func (cr *CollectionRef) Doc(id string) *DocumentRef {
	if cr.err != nil {
		return &DocumentRef{c: cr.c, err: cr.err}
	}
	n, err := cr.path.Doc(id)
	return &DocumentRef{c: cr.c, name: n, err: err}
}

// NewDoc returns a reference with a fresh random ID.
func (cr *CollectionRef) NewDoc() *DocumentRef {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	rng := rand.New(rand.NewSource(cr.c.rng.Add(1)))
	id := make([]byte, 20)
	for i := range id {
		id[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return cr.Doc(string(id))
}

// Query starts a query over the collection.
func (cr *CollectionRef) Query() Query {
	return Query{c: cr.c, coll: cr.path, err: cr.err}
}

// Where is shorthand for Query().Where.
func (cr *CollectionRef) Where(fieldPath, op string, value any) Query {
	return cr.Query().Where(fieldPath, op, value)
}

// OrderBy is shorthand for Query().OrderBy.
func (cr *CollectionRef) OrderBy(fieldPath string, dir Direction) Query {
	return cr.Query().OrderBy(fieldPath, dir)
}

// Documents returns an iterator over every document in the collection.
func (cr *CollectionRef) Documents(ctx context.Context) *DocumentIterator {
	return cr.Query().Documents(ctx)
}

// GetAll returns every document in the collection as one slice.
func (cr *CollectionRef) GetAll(ctx context.Context) ([]*DocumentSnapshot, error) {
	return cr.Query().GetAll(ctx)
}

// Snapshots opens a real-time listener on the whole collection.
func (cr *CollectionRef) Snapshots(ctx context.Context) (*QuerySnapshotIterator, error) {
	return cr.Query().Snapshots(ctx)
}

// DocumentRef refers to a document.
type DocumentRef struct {
	c    *Client
	name doc.Name
	err  error
}

// Path returns the document's full path.
func (dr *DocumentRef) Path() string { return dr.name.String() }

// ID returns the document's identifying string.
func (dr *DocumentRef) ID() string { return dr.name.ID() }

// Collection returns a sub-collection reference.
func (dr *DocumentRef) Collection(id string) *CollectionRef {
	if dr.err != nil {
		return &CollectionRef{c: dr.c, err: dr.err}
	}
	cp, err := doc.ParseCollection(dr.name.String() + "/" + id)
	return &CollectionRef{c: dr.c, path: cp, err: err}
}

// DocumentSnapshot is a read document (or evidence of its absence).
type DocumentSnapshot struct {
	Ref        *DocumentRef
	exists     bool
	fields     map[string]doc.Value
	CreateTime time.Time
	UpdateTime time.Time
	// ReadTime is the snapshot timestamp the read reflected.
	ReadTime time.Time

	updateTS truetime.Timestamp
}

// Exists reports whether the document was present.
func (s *DocumentSnapshot) Exists() bool { return s.exists }

// Data returns the document's fields as Go values.
func (s *DocumentSnapshot) Data() map[string]any {
	if !s.exists {
		return nil
	}
	return fromFields(s.fields)
}

// DataAt returns one (possibly nested, dot-separated) field.
func (s *DocumentSnapshot) DataAt(fieldPath string) (any, bool) {
	if !s.exists {
		return nil, false
	}
	d := &doc.Document{Fields: s.fields}
	v, ok := d.Get(doc.FieldPath(fieldPath))
	if !ok {
		return nil, false
	}
	return fromValue(v), true
}

// Get reads the document with strong consistency, retrying transient
// failures.
func (dr *DocumentRef) Get(ctx context.Context) (s *DocumentSnapshot, err error) {
	err = status.Retry(ctx, maxRPCAttempts, func() error {
		s, err = dr.fetch(ctx, 0)
		return err
	})
	return s, err
}

// fetch reads the document at readTS (zero: now). A missing document is
// a snapshot that does not exist, not an error.
func (dr *DocumentRef) fetch(ctx context.Context, readTS truetime.Timestamp) (*DocumentSnapshot, error) {
	if dr.err != nil {
		return nil, dr.err
	}
	d, readTS, err := dr.c.region.GetDocument(ctx, dr.c.dbID, dr.c.p, dr.name, readTS)
	if errors.Is(err, backend.ErrNotFound) {
		return &DocumentSnapshot{Ref: dr, ReadTime: tsTime(readTS)}, nil
	}
	if err != nil {
		return nil, err
	}
	return new(DocumentSnapshot).set(dr, d, readTS), nil
}

// resultSnap is the snapshot of a document a query or a listener
// returned, which nobody holds a reference to yet: the reference is
// allocated in one piece with the snapshot.
type resultSnap struct {
	DocumentSnapshot
	ref DocumentRef
}

func (s *resultSnap) set(c *Client, d *doc.Document, readTS truetime.Timestamp) *DocumentSnapshot {
	s.ref = DocumentRef{c: c, name: d.Name}
	return s.DocumentSnapshot.set(&s.ref, d, readTS)
}

func resultSnapshot(c *Client, d *doc.Document, readTS truetime.Timestamp) *DocumentSnapshot {
	return new(resultSnap).set(c, d, readTS)
}

func (s *DocumentSnapshot) set(dr *DocumentRef, d *doc.Document, readTS truetime.Timestamp) *DocumentSnapshot {
	*s = DocumentSnapshot{
		Ref:        dr,
		exists:     true,
		fields:     d.Fields,
		CreateTime: tsTime(d.CreateTime),
		UpdateTime: tsTime(d.UpdateTime),
		ReadTime:   tsTime(readTS),
		updateTS:   d.UpdateTime,
	}
	return s
}

// document is the snapshot as the engine's document type, sharing its
// fields, or nil when the document does not exist.
func (s *DocumentSnapshot) document() *doc.Document {
	if !s.exists {
		return nil
	}
	return &doc.Document{
		Name:       s.Ref.name,
		Fields:     s.fields,
		CreateTime: truetime.Timestamp(s.CreateTime.UnixNano()),
		UpdateTime: s.updateTS,
	}
}

// LocalSnapshot is the snapshot of a write no server has acknowledged:
// what the document reads as once data is set — or, for nil data,
// deleted — with zero timestamps. An offline layer overlays these on
// cached server snapshots.
func (dr *DocumentRef) LocalSnapshot(data map[string]any) (*DocumentSnapshot, error) {
	kind := backend.OpSet
	if data == nil {
		kind = backend.OpDelete
	}
	op, err := dr.op(kind, data)
	if err != nil {
		return nil, err
	}
	return dr.c.localSnapshot(op), nil
}

func (c *Client) localSnapshot(op backend.WriteOp) *DocumentSnapshot {
	if op.Kind == backend.OpDelete {
		return &DocumentSnapshot{Ref: &DocumentRef{c: c, name: op.Name}}
	}
	return resultSnapshot(c, &doc.Document{Name: op.Name, Fields: op.Fields}, 0)
}

// Writes returns what the attempt has buffered, as LocalSnapshots: what
// an offline layer folds into its cache once RunTransaction returns nil.
func (tx *Transaction) Writes() []*DocumentSnapshot {
	out := make([]*DocumentSnapshot, len(tx.ops))
	for i, op := range tx.ops {
		out[i] = tx.c.localSnapshot(op)
	}
	return out
}

// MarshalBinary encodes the snapshot — path, existence, timestamps,
// fields, checksummed — for a local cache that outlives the process.
// ReadTime is not kept.
func (s *DocumentSnapshot) MarshalBinary() ([]byte, error) {
	if !s.exists {
		return append(doc.Marshal(&doc.Document{Name: s.Ref.name}), 0), nil
	}
	return append(doc.Marshal(s.document()), 1), nil
}

// UnmarshalSnapshot decodes a MarshalBinary encoding into a snapshot
// whose Ref belongs to this client.
func (c *Client) UnmarshalSnapshot(data []byte) (*DocumentSnapshot, error) {
	if len(data) == 0 || data[len(data)-1] > 1 {
		return nil, status.New(status.InvalidArgument, "firestore", "malformed snapshot encoding")
	}
	d, err := doc.Unmarshal(data[:len(data)-1])
	if err != nil {
		return nil, err
	}
	if data[len(data)-1] == 0 {
		return &DocumentSnapshot{Ref: &DocumentRef{c: c, name: d.Name}}, nil
	}
	return resultSnapshot(c, d, 0), nil
}

// tsTime renders an engine timestamp as wall-clock-ish time (the engine's
// epoch is process start; only ordering and deltas are meaningful).
func tsTime(ts truetime.Timestamp) time.Time {
	return time.Unix(0, int64(ts))
}

// Set creates or replaces the document.
func (dr *DocumentRef) Set(ctx context.Context, data map[string]any) error {
	return dr.write(ctx, backend.OpSet, data)
}

// Create creates the document, failing if it already exists.
func (dr *DocumentRef) Create(ctx context.Context, data map[string]any) error {
	return dr.write(ctx, backend.OpCreate, data)
}

// Update replaces an existing document, failing if it is missing.
func (dr *DocumentRef) Update(ctx context.Context, data map[string]any) error {
	return dr.write(ctx, backend.OpUpdate, data)
}

// Delete removes the document (idempotent).
func (dr *DocumentRef) Delete(ctx context.Context) error {
	return dr.write(ctx, backend.OpDelete, nil)
}

func (dr *DocumentRef) write(ctx context.Context, kind backend.OpKind, data map[string]any) error {
	op, err := dr.op(kind, data)
	if err != nil {
		return err
	}
	return status.Retry(ctx, maxRPCAttempts, func() error {
		_, err := dr.c.region.Commit(ctx, dr.c.dbID, dr.c.p, []backend.WriteOp{op})
		return err
	})
}

// op is one write to the document as the backend takes it: every write
// path — blind, batched, transactional, bulk — validates the reference
// and converts the data here.
func (dr *DocumentRef) op(kind backend.OpKind, data map[string]any) (op backend.WriteOp, err error) {
	if dr.err != nil {
		return op, dr.err
	}
	op = backend.WriteOp{Kind: kind, Name: dr.name}
	if kind != backend.OpDelete {
		if op.Fields, err = toFields(data); err != nil {
			err = fmt.Errorf("%s: %w", dr.Path(), err)
		}
	}
	return op, err
}

// Snapshots opens a real-time listener on this single document: a
// query on its collection that starts and ends at its name, so the
// matcher delivers that document's writes alone.
func (dr *DocumentRef) Snapshots(ctx context.Context) (*QuerySnapshotIterator, error) {
	if dr.err != nil {
		return nil, dr.err
	}
	coll := &CollectionRef{c: dr.c, path: dr.name.Collection()}
	return coll.Query().StartAt(dr).EndAt(dr).Snapshots(ctx)
}
