// Package catalog implements Firestore's multi-tenant database catalog
// (§IV-C, §IV-D1): millions of Firestore databases mapped onto a small
// pool of pre-initialized Spanner databases, each Firestore database
// occupying a directory (key prefix) with two logical tables, Entities
// and IndexEntries. The catalog also holds per-database metadata —
// composite index definitions, automatic-index exemptions, security
// rules — served through a metadata cache snapshot so the hot paths
// never take the catalog lock.
package catalog

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

	"firestore/internal/doc"
	"firestore/internal/encoding"
	"firestore/internal/index"
	"firestore/internal/rules"
	"firestore/internal/spanner"
	"firestore/internal/status"
)

// Table prefixes within a database's directory.
const (
	TableEntities     byte = 'E'
	TableIndexEntries byte = 'I'
)

// Errors, classified with canonical status codes.
var (
	ErrExists   = status.New(status.AlreadyExists, "catalog", "database already exists")
	ErrNotFound = status.New(status.NotFound, "catalog", "database not found")
)

// Catalog places databases across a pool of Spanner databases.
type Catalog struct {
	spanners []*spanner.DB

	mu  sync.RWMutex
	dbs map[string]*Database
}

// New creates a catalog over the given pre-initialized Spanner pool
// ("storing each Firestore database in its own Spanner database would be
// prohibitively expensive", §IV-D1).
func New(pool []*spanner.DB) *Catalog {
	if len(pool) == 0 {
		panic("catalog: empty spanner pool")
	}
	return &Catalog{spanners: pool, dbs: map[string]*Database{}}
}

// Create initializes a new Firestore database. Placement hashes the ID
// across the Spanner pool.
func (c *Catalog) Create(id string) (*Database, error) {
	if id == "" {
		return nil, fmt.Errorf("catalog: empty database ID")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.dbs[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	dir := append(encoding.AppendEscaped(nil, id), 0x00)
	db := &Database{
		ID:       id,
		Spanner:  c.spanners[int(h.Sum32())%len(c.spanners)],
		entities: append(slices.Clone(dir), TableEntities),
		indexes:  append(slices.Clone(dir), TableIndexEntries),
		stats:    index.NewStats(),
	}
	db.meta.Store(&Meta{})
	c.dbs[id] = db
	return db, nil
}

// Get returns the database or ErrNotFound.
func (c *Catalog) Get(id string) (*Database, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	db, ok := c.dbs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return db, nil
}

// MustGet is Get that panics on a missing database, for callers that
// just created it.
func (c *Catalog) MustGet(id string) *Database {
	db, err := c.Get(id)
	if err != nil {
		panic(err)
	}
	return db
}

// List returns all database IDs.
func (c *Catalog) List() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.dbs))
	for id := range c.dbs {
		out = append(out, id)
	}
	return out
}

// Database is one tenant: a directory within a Spanner database plus
// metadata.
type Database struct {
	ID      string
	Spanner *spanner.DB

	// entities and indexes are the two tables' row-key prefixes (directory,
	// then table byte), shared by every key built behind them.
	entities, indexes []byte

	metaMu sync.Mutex // serializes metadata writers
	meta   atomic.Pointer[Meta]

	stats *index.Stats
}

// Stats returns the database's index-cardinality tracker. It is nil-safe
// to use but never nil for catalog-created databases.
func (db *Database) Stats() *index.Stats { return db.stats }

// Meta is the immutable metadata snapshot hot paths read — the paper's
// Metadata Cache (Figure 4). Mutators install a fresh snapshot.
type Meta struct {
	Composites []index.Definition
	Exemptions index.Exemptions
	Rules      *rules.Ruleset // nil denies all third-party access
	// Backfilling marks composite indexes whose backfill has not
	// completed; the planner must not use them yet, but writers must
	// maintain them (§IV-D1).
	Backfilling map[uint64]bool
}

// ReadyComposites returns the composite definitions usable by the query
// planner (backfilled ones only).
func (m *Meta) ReadyComposites() []index.Definition {
	if len(m.Backfilling) == 0 {
		return m.Composites
	}
	out := make([]index.Definition, 0, len(m.Composites))
	for _, d := range m.Composites {
		if !m.Backfilling[d.ID] {
			out = append(out, d)
		}
	}
	return out
}

// Meta returns the current metadata snapshot.
func (db *Database) Meta() *Meta { return db.meta.Load() }

// updateMeta applies fn to a copy of the metadata and installs it.
func (db *Database) updateMeta(fn func(*Meta)) {
	db.metaMu.Lock()
	defer db.metaMu.Unlock()
	old := db.meta.Load()
	next := &Meta{
		Composites:  append([]index.Definition(nil), old.Composites...),
		Exemptions:  old.Exemptions,
		Rules:       old.Rules,
		Backfilling: map[uint64]bool{},
	}
	for id := range old.Backfilling {
		next.Backfilling[id] = true
	}
	fn(next)
	db.meta.Store(next)
}

// SetRules installs the database's security rules.
func (db *Database) SetRules(rs *rules.Ruleset) {
	db.updateMeta(func(m *Meta) { m.Rules = rs })
}

// AddExemption excludes a field from automatic indexing.
func (db *Database) AddExemption(collection string, path doc.FieldPath) {
	db.updateMeta(func(m *Meta) {
		fresh := m.Exemptions.Clone()
		fresh.Exempt(collection, path)
		m.Exemptions = fresh
	})
}

// AddComposite registers a composite index in the backfilling state; the
// backfill service marks it ready via FinishBackfill.
func (db *Database) AddComposite(def index.Definition) {
	db.updateMeta(func(m *Meta) {
		for _, d := range m.Composites {
			if d.ID == def.ID {
				return
			}
		}
		m.Composites = append(m.Composites, def)
		m.Backfilling[def.ID] = true
	})
}

// FinishBackfill marks a composite index ready for query planning.
func (db *Database) FinishBackfill(id uint64) {
	db.updateMeta(func(m *Meta) { delete(m.Backfilling, id) })
}

// RemoveComposite drops a composite index definition (backremoval of its
// entries is the background service's job).
func (db *Database) RemoveComposite(id uint64) {
	db.updateMeta(func(m *Meta) {
		out := m.Composites[:0]
		for _, d := range m.Composites {
			if d.ID != id {
				out = append(out, d)
			}
		}
		m.Composites = out
		delete(m.Backfilling, id)
	})
}

// EntityKey returns the Spanner row key for a document's Entities row —
// directory prefix, table byte, encoded name — in one allocation.
func (db *Database) EntityKey(name doc.Name) []byte {
	return db.AppendEntityKey(make([]byte, 0, len(db.entities)+encoding.NameLen(name)), name)
}

// AppendEntityKey appends EntityKey(name) to dst, for a reader that
// builds one key after another in its own buffer.
func (db *Database) AppendEntityKey(dst []byte, name doc.Name) []byte {
	return encoding.EncodeName(append(dst, db.entities...), name)
}

// IndexPrefix returns the row-key prefix of the IndexEntries table, for
// index.DiffEntries to build row keys behind. Callers must not modify it.
func (db *Database) IndexPrefix() []byte { return db.indexes }

// IndexKey returns the Spanner row key for an IndexEntries row.
func (db *Database) IndexKey(entry []byte) []byte {
	return rowKey(db.indexes, entry)
}

func rowKey(table, rest []byte) []byte {
	key := make([]byte, 0, len(table)+len(rest))
	return append(append(key, table...), rest...)
}

// EntityRange maps a range of encoded names (or name prefixes) into
// Spanner key space; a nil hi is the end of the Entities table, so
// (nil, nil) is all of it.
func (db *Database) EntityRange(lo, hi []byte) (klo, khi []byte) {
	return tableRange(db.entities, lo, hi)
}

// IndexRange maps an IndexEntries-space range into Spanner key space.
func (db *Database) IndexRange(lo, hi []byte) (klo, khi []byte) {
	return tableRange(db.indexes, lo, hi)
}

// AppendIndexRange is IndexRange appended to klo and khi, for a reader
// that builds one range after another in its own buffers.
func (db *Database) AppendIndexRange(klo, khi, lo, hi []byte) ([]byte, []byte) {
	return appendTableRange(klo, khi, db.indexes, lo, hi)
}

func tableRange(table, lo, hi []byte) (klo, khi []byte) {
	if hi != nil {
		khi = make([]byte, 0, len(table)+len(hi))
	}
	return appendTableRange(make([]byte, 0, len(table)+len(lo)), khi, table, lo, hi)
}

func appendTableRange(klo, khi, table, lo, hi []byte) ([]byte, []byte) {
	klo = append(append(klo, table...), lo...)
	if hi == nil {
		return klo, encoding.PrefixSuccessor(table) // the table's end
	}
	return klo, append(append(khi, table...), hi...)
}

// StripIndexKey removes the directory+table prefix from a Spanner key,
// recovering the IndexEntries-space key.
func (db *Database) StripIndexKey(key []byte) []byte {
	return key[len(db.indexes):]
}
