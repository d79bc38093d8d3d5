// Package firestore is the Server SDK (§III-D): the client library used
// by applications running in privileged environments. It maps Firestore's
// data model to Go values and provides document references, collection
// references, a chainable query builder, write batches, transactions with
// automatic retry and backoff, and snapshot listeners over real-time
// queries.
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
	"sync/atomic"
	"time"

	"firestore/internal/backend"
	"firestore/internal/core"
	"firestore/internal/doc"
	"firestore/internal/rules"
	"firestore/internal/truetime"
)

// Client is a handle to one Firestore database.
type Client struct {
	region *core.Region
	dbID   string
	p      backend.Principal
	rng    atomic.Int64
}

// NewClient returns a privileged (server-side) client for the database.
func NewClient(region *core.Region, dbID string) *Client {
	c := &Client{region: region, dbID: dbID, p: backend.Principal{Privileged: true}}
	c.rng.Store(time.Now().UnixNano())
	return c
}

// NewUserClient returns a client acting as an authenticated end user;
// the database's security rules apply to every operation. It exists for
// tests and tools; end-user devices use package mobile.
func NewUserClient(region *core.Region, dbID string, auth *rules.Auth) *Client {
	c := &Client{region: region, dbID: dbID, p: backend.Principal{Auth: auth}}
	c.rng.Store(time.Now().UnixNano())
	return c
}

// Database returns the database ID.
func (c *Client) Database() string { return c.dbID }

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
// failures per the interceptor policy in retry.go.
func (dr *DocumentRef) Get(ctx context.Context) (*DocumentSnapshot, error) {
	if dr.err != nil {
		return nil, dr.err
	}
	var d *doc.Document
	var readTS truetime.Timestamp
	err := withRetry(ctx, func() error {
		var err error
		d, readTS, err = dr.c.region.GetDocument(ctx, dr.c.dbID, dr.c.p, dr.name, 0)
		return err
	})
	if errors.Is(err, backend.ErrNotFound) {
		return &DocumentSnapshot{Ref: dr, ReadTime: tsTime(readTS)}, nil
	}
	if err != nil {
		return nil, err
	}
	return snapshotOf(dr, d, readTS), nil
}

func snapshotOf(dr *DocumentRef, d *doc.Document, readTS truetime.Timestamp) *DocumentSnapshot {
	s := new(DocumentSnapshot)
	s.set(dr, d, readTS)
	return s
}

// resultSnapshot is snapshotOf for a document a query or a listener
// returned, which nobody holds a reference to yet: the reference is
// allocated in one piece with the snapshot.
func resultSnapshot(c *Client, d *doc.Document, readTS truetime.Timestamp) *DocumentSnapshot {
	s := &struct {
		DocumentSnapshot
		ref DocumentRef
	}{ref: DocumentRef{c: c, name: d.Name}}
	s.set(&s.ref, d, readTS)
	return &s.DocumentSnapshot
}

func (s *DocumentSnapshot) set(dr *DocumentRef, d *doc.Document, readTS truetime.Timestamp) {
	*s = DocumentSnapshot{
		Ref:        dr,
		exists:     true,
		fields:     d.Fields,
		CreateTime: tsTime(d.CreateTime),
		UpdateTime: tsTime(d.UpdateTime),
		ReadTime:   tsTime(readTS),
		updateTS:   d.UpdateTime,
	}
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
	if dr.err != nil {
		return dr.err
	}
	fields, err := toFields(data)
	if err != nil {
		return err
	}
	return withRetry(ctx, func() error {
		_, err := dr.c.region.Commit(ctx, dr.c.dbID, dr.c.p, []backend.WriteOp{
			{Kind: kind, Name: dr.name, Fields: fields},
		})
		return err
	})
}

// Snapshots opens a real-time listener on this single document,
// implemented as a listener on an ID-constrained query.
func (dr *DocumentRef) Snapshots(ctx context.Context) (*QuerySnapshotIterator, error) {
	if dr.err != nil {
		return nil, dr.err
	}
	coll := &CollectionRef{c: dr.c, path: dr.name.Collection()}
	// A bare collection listener filtered client-side would over-match;
	// the engine has no __name__ predicate, so we listen on the
	// collection and filter in the iterator.
	it, err := coll.Query().Snapshots(ctx)
	if err != nil {
		return nil, err
	}
	it.filterName = dr.name.String()
	return it, nil
}

// fmtErr decorates an error with the ref path.
func fmtErr(dr *DocumentRef, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", dr.Path(), err)
}
