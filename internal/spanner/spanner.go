// Package spanner implements the storage substrate the Firestore paper
// builds on (§IV-D1): a multi-tablet, multi-version ordered row store
// with lock-based read-write transactions, two-phase commit across
// tablets, TrueTime commit timestamps with commit wait, lock-free
// consistent snapshot (timestamp) reads, load-based tablet splitting and
// merging, and directories that guide placement.
//
// Rows are opaque: a key and a value, both byte strings. Firestore's
// fixed-schema Entities and IndexEntries tables are realized as key
// prefixes chosen by the caller, exactly mirroring the paper's
// "one-to-one mapping of documents and index entries to Spanner rows".
//
// Replication is the one synthetic part: instead of running Paxos
// replicas, each commit pays the delay Config.CommitDelay models for its
// shape (regional vs multi-region deployments differ only in that
// model). Everything Firestore relies on semantically — external
// consistency, row-granular atomicity, ordered scans, split/merge — is
// implemented for real.
package spanner

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"firestore/internal/fault"
	"firestore/internal/keyviz"
	"firestore/internal/obs"
	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// Errors returned by the engine, classified with canonical status codes.
var (
	// ErrAborted reports a transaction aborted due to lock contention or
	// deadlock-resolution timeout; the caller should retry (Aborted is a
	// retryable code).
	ErrAborted = status.New(status.Aborted, "spanner", "transaction aborted")
	// ErrCommitWindow reports that no commit timestamp within the
	// caller's [min, max] window could be chosen; retried like any other
	// commit-time abort.
	ErrCommitWindow = status.New(status.Aborted, "spanner", "commit timestamp window unsatisfiable")
	// ErrTxnDone reports use of a committed or aborted transaction — a
	// caller bug, not a retryable condition.
	ErrTxnDone = status.New(status.Internal, "spanner", "transaction already finished")
	// ErrClosed reports an operation against a closed DB: shutdown raced
	// an in-flight request (an async flusher, a background writer).
	// Unavailable, so the caller's retry policy treats it like any other
	// stopped replica.
	ErrClosed = status.New(status.Unavailable, "spanner", "database closed")
	// ErrOutcomeUnknown reports a commit whose phase-2 applies did not
	// all complete before the attempt budget ran out: some participant
	// may already hold the writes durably, and a background roll-forward
	// is completing the transaction. Callers must treat the write as
	// possibly committed — NOT failed — and re-read rather than trust a
	// failure signal (the Real-time Cache maps this to OutcomeUnknown,
	// which resets and requeries the affected ranges).
	ErrOutcomeUnknown = status.New(status.Unavailable, "spanner", "commit outcome unknown: roll-forward in progress")
)

// Config tunes a DB instance.
type Config struct {
	// Clock supplies TrueTime. If nil a System clock with 100µs epsilon
	// is used.
	Clock truetime.Clock
	// CommitDelay is the replication latency model: the delay a commit
	// pays, slept on Clock between prepare and apply, given its
	// participant tablets, written bytes and written rows (§IV-D2,
	// §V-B2). Nil turns the model off and a commit computes nothing for it.
	CommitDelay func(participants, bytes, rows int) time.Duration
	// SplitThreshold is the tablet operation count within the load
	// window that triggers a split. Zero disables splitting.
	SplitThreshold int64
	// MaxTabletRows splits any tablet exceeding this many rows
	// regardless of load. Zero disables size-based splits.
	MaxTabletRows int
	// Obs receives engine metrics: per-database lock-wait and commit-wait
	// histograms, commit/abort/2PC counters, split/merge events, and a
	// tablet-count gauge.
	Obs *obs.Registry
	// Storage creates and recovers tablet row engines. Nil means the
	// in-memory engine (storage.MemFactory): fastest, volatile, the
	// default. A storage.DiskFactory makes tablets durable — commits are
	// WAL-logged and group-fsynced, and Open recovers every tablet the
	// factory lists (manifest load + WAL replay).
	Storage storage.Factory
	// KeyViz, when set, receives per-tablet heat samples (reads, scans,
	// commit applies, lock waits, fault hits) and split/merge events
	// annotated with before/after load. Nil disables attribution at the
	// cost of one nil check per sample site.
	KeyViz *keyviz.Collector
}

// defaultLockTimeout bounds lock waits; expiry aborts the transaction
// (the paper: deadlocks "are resolved by failing and retrying such
// transactions").
const defaultLockTimeout = 2 * time.Second

// DB is a Spanner-like database instance: an ordered, versioned key space
// partitioned into tablets.
type DB struct {
	clock       truetime.Clock
	commitDelay func(participants, bytes, rows int) time.Duration
	lockTimeout time.Duration // defaultLockTimeout; tests shorten it
	met         metrics
	kv          *keyviz.Collector

	locks *lockTable

	// storage creates and recovers tablet engines; nextTabletID
	// allocates stable tablet identities (above any recovered id).
	storage      storage.Factory
	nextTabletID atomic.Uint64

	// closed flips once in Close; background roll-forward retry loops
	// check it so they stop instead of recovering engines of a closed DB.
	closed atomic.Bool

	mu      sync.RWMutex
	tablets []*tablet // sorted by start key; tablets[0].start == nil

	splitThreshold int64
	maxTabletRows  int

	// stats are this pool database's own tallies behind Stats — finer
	// than any exported label, since the pool shares the region's
	// registry — kept as atomics so that no operation takes mu to say it
	// happened.
	stats struct {
		commits, aborts, splits, merges, reads, scans    atomic.Int64
		snapWaits, lockTimeout, recoveries, rollForwards atomic.Int64
	}
}

// metrics are the instruments a DB declares when it opens. Every family
// is {db}: the request's database, or no label for internal work.
type metrics struct {
	commits, twoPCCommits, twoPCParticipants, lockTimeout *obs.CounterVec
	aborts, rollForwards, splits, merges, recoveries      *obs.CounterVec
	lockWait, commitWait                                  *obs.HistogramVec
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		commits:           reg.CounterVec("spanner.commits", "db"),
		twoPCCommits:      reg.CounterVec("spanner.2pc_commits", "db"),
		twoPCParticipants: reg.CounterVec("spanner.2pc_participants", "db"),
		lockTimeout:       reg.CounterVec("spanner.lock_timeout", "db"),
		aborts:            reg.CounterVec("spanner.aborts", "db"),
		rollForwards:      reg.CounterVec("spanner.roll_forwards", "db"),
		splits:            reg.CounterVec("spanner.splits", "db"),
		merges:            reg.CounterVec("spanner.merges", "db"),
		recoveries:        reg.CounterVec("spanner.tablet_recoveries", "db"),
		lockWait:          reg.HistogramVec("spanner.lock_wait", "db"),
		commitWait:        reg.HistogramVec("spanner.commit_wait", "db"),
	}
}

// Stats carries engine counters, retrieved with DB.Stats.
type Stats struct {
	Commits     int64
	Aborts      int64
	Splits      int64
	Merges      int64
	Reads       int64
	Scans       int64
	SnapWaits   int64
	LockTimeout int64
	// Recoveries counts tablet engine crash-recoveries (manifest load +
	// WAL replay after an injected or real storage crash).
	Recoveries int64
	// RollForwards counts commits whose phase 2 was interrupted by
	// persistent storage failure and driven to completion asynchronously:
	// the outcome is reported unknown to the caller, and the writes stay
	// invisible (locks and safe-time bounds held) until fully applied.
	RollForwards int64
}

// New creates (or, with a durable storage factory, recovers) a
// database. It panics if the storage factory cannot open its tablets —
// use Open to handle startup storage errors.
func New(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("spanner: opening storage: %v", err))
	}
	return db
}

// Open creates a database. With the default in-memory storage it starts
// with a single tablet covering the whole key space; with a durable
// factory it recovers every tablet the factory lists (manifest load +
// WAL replay to the last durable commit), clamping any bound overlap
// left by a crash mid-split in favor of the later tablet.
func Open(cfg Config) (*DB, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = truetime.NewSystem(100 * time.Microsecond)
	}
	fac := cfg.Storage
	if fac == nil {
		fac = storage.MemFactory{}
	}
	reg := obs.OrNew(cfg.Obs)
	db := &DB{
		clock:          clock,
		commitDelay:    cfg.CommitDelay,
		lockTimeout:    defaultLockTimeout,
		met:            newMetrics(reg),
		kv:             cfg.KeyViz,
		locks:          newLockTable(clock),
		storage:        fac,
		splitThreshold: cfg.SplitThreshold,
		maxTabletRows:  cfg.MaxTabletRows,
	}
	if err := db.openTablets(); err != nil {
		return nil, err
	}
	reg.GaugeFunc("spanner.tablets", nil, func() float64 {
		return float64(db.TabletCount())
	})
	return db, nil
}

// allocTabletID returns a fresh stable tablet identity.
func (db *DB) allocTabletID() uint64 { return db.nextTabletID.Add(1) }

// openTablets recovers the factory's tablet set, or creates the initial
// whole-keyspace tablet when nothing is recoverable.
func (db *DB) openTablets() error {
	metas, err := db.storage.List()
	if err != nil {
		return err
	}
	if len(metas) == 0 {
		id := db.allocTabletID()
		e, err := db.storage.Open(id, nil, nil)
		if err != nil {
			return err
		}
		if err := e.Commission(); err != nil {
			e.Close()
			return err
		}
		db.tablets = []*tablet{newTablet(db, id, e, nil, nil)}
		return nil
	}
	maxID := uint64(0)
	maxDurable := truetime.Zero
	for i, m := range metas {
		// Resolve bound overlap from a crash mid-split/merge in favor of
		// the later (split-target) tablet, and force full keyspace
		// coverage at the edges; SetBounds masks what the earlier tablet
		// holds of the later one's range, as the interrupted split would.
		var start, end []byte
		if i > 0 {
			start = m.Start
		}
		if i < len(metas)-1 {
			end = metas[i+1].Start
		}
		e, err := db.storage.Open(m.ID, m.Start, m.End)
		if err != nil {
			db.closeTablets()
			return err
		}
		if !sameBound(start, m.Start) || !sameBound(end, m.End) {
			if err := e.SetBounds(start, end); err != nil {
				e.Close()
				db.closeTablets()
				return err
			}
		}
		t := newTablet(db, m.ID, e, start, end)
		if lc := e.LastDurable(); lc != truetime.Max {
			t.lastCommit = lc
			if lc > maxDurable {
				maxDurable = lc
			}
		}
		db.tablets = append(db.tablets, t)
		if m.ID > maxID {
			maxID = m.ID
		}
	}
	db.nextTabletID.Store(maxID)
	// TrueTime is absolute in production, so a restarted node naturally
	// issues timestamps past everything it ever committed. Our clocks are
	// relative to clock creation, so re-anchor past the recovered
	// high-water mark or new commits would sort before recovered versions.
	if f, ok := db.clock.(truetime.Forwarder); ok && maxDurable > truetime.Zero {
		f.Forward(maxDurable)
	}
	return nil
}

func (db *DB) closeTablets() {
	for _, t := range db.tablets {
		if t.store != nil {
			t.store.Close()
		}
	}
	db.tablets = nil
}

// Close releases every tablet engine (flushing nothing: a durable
// engine's WAL already holds everything acknowledged; the next Open
// replays it). The DB must not be used afterwards.
func (db *DB) Close() error {
	db.closed.Store(true)
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closeTablets()
	return nil
}

func (db *DB) isClosed() bool { return db.closed.Load() }

// Clock returns the database's TrueTime clock.
func (db *DB) Clock() truetime.Clock { return db.clock }

// StrongReadTimestamp returns a timestamp at which a snapshot read is
// guaranteed to observe every previously committed transaction (external
// consistency): TT.now().latest.
func (db *DB) StrongReadTimestamp() truetime.Timestamp {
	return db.clock.Now().Latest
}

// MaxCommitLead bounds how far a commit timestamp may lead TrueTime when
// its version is applied: Commit waits, before phase 2, until TrueTime
// has passed ts − MaxCommitLead.
const MaxCommitLead = 10 * time.Millisecond

// ReadHorizon returns the oldest timestamp at which a snapshot read that
// ended before the call read every version it should have. The engines
// drop a version only once its successor is storage.GCRetention older
// than the newest version they compare it with (storage.trimmable, the
// disk engine's bottom merge), and that newest version was applied
// before the read ended, so after TrueTime passed its timestamp less
// MaxCommitLead: it is below Now().Latest + MaxCommitLead. A read at or
// above the horizon therefore saw no dropped version; one below it may
// have, and is refused rather than answered.
func (db *DB) ReadHorizon() truetime.Timestamp {
	return db.clock.Now().Latest.Add(MaxCommitLead - storage.GCRetention)
}

// Stats returns a copy of the engine counters.
func (db *DB) Stats() Stats {
	s := &db.stats
	return Stats{
		Commits: s.commits.Load(), Aborts: s.aborts.Load(),
		Splits: s.splits.Load(), Merges: s.merges.Load(),
		Reads: s.reads.Load(), Scans: s.scans.Load(),
		SnapWaits: s.snapWaits.Load(), LockTimeout: s.lockTimeout.Load(),
		Recoveries: s.recoveries.Load(), RollForwards: s.rollForwards.Load(),
	}
}

// TabletCount returns the current number of tablets.
func (db *DB) TabletCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.tablets)
}

// TabletInfo is one tablet's state for /debug/tabletz and
// /debug/storagez.
type TabletInfo struct {
	Index int `json:"index"`
	// ID is the tablet's stable storage identity.
	ID uint64 `json:"id"`
	// Start and End delimit the tablet's key range; empty means
	// unbounded on that side.
	Start string `json:"start,omitempty"`
	End   string `json:"end,omitempty"`
	Rows  int    `json:"rows"`
	// Load is the operation count in the current load window — the
	// signal that drives load-based splitting.
	Load       int64              `json:"load"`
	LastCommit truetime.Timestamp `json:"last_commit_ts"`
	// Prepared is the number of transactions mid-2PC on this tablet.
	Prepared int `json:"prepared"`
	// Storage is the row engine's state: kind, memtable size, WAL and
	// segment footprint, flush/compaction/recovery counters.
	Storage storage.Stats `json:"storage"`
}

// TabletStats reports per-tablet key range, row count, current load,
// in-flight prepares, and storage-engine state, in start-key order.
func (db *DB) TabletStats() []TabletInfo {
	db.mu.RLock()
	tablets := append([]*tablet(nil), db.tablets...)
	db.mu.RUnlock()
	now := db.clock.Now().Latest
	out := make([]TabletInfo, 0, len(tablets))
	for i, t := range tablets {
		t.mu.Lock()
		e := t.store
		info := TabletInfo{
			Index:      i,
			ID:         t.id,
			Start:      string(t.start),
			End:        string(t.end),
			Load:       t.load,
			LastCommit: t.lastCommit,
			Prepared:   len(t.prepared),
		}
		if now.Sub(t.windowStart) > loadWindow {
			info.Load = 0
		}
		t.mu.Unlock()
		// Engine stats outside t.mu: Stats takes engine-internal locks.
		info.Storage = e.Stats()
		info.Rows = info.Storage.Keys
		out = append(out, info)
	}
	return out
}

// tabletFor returns the tablet owning key, or nil after Close (callers
// surface ErrClosed: shutdown legitimately races in-flight requests).
func (db *DB) tabletFor(key []byte) *tablet {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(db.tablets) == 0 {
		return nil
	}
	return db.tablets[db.tabletIndexLocked(key)]
}

// sampleFault attributes an injected fault to the tablet owning key so
// the heatmap shows where the fault plane bit. The tablet resolution
// sits behind the collector's armed check, so a disarmed collector pays
// only the single atomic load.
func (db *DB) sampleFault(key []byte) {
	if !db.kv.Armed() {
		return
	}
	if t := db.tabletFor(key); t != nil {
		db.kv.Sample(keyviz.SrcTablet, t.id, keyviz.OpFault, 1, 0, 0)
	}
}

// TabletIndex returns the index (in start-key order) of the tablet
// owning key, letting callers group keys by the tablet that serves them.
// The index is only stable until the next split, which is fine for its
// use — transient grouping of a batch about to commit.
func (db *DB) TabletIndex(key []byte) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tabletIndexLocked(key)
}

// tabletIndexLocked returns the index of the tablet owning key. Caller
// holds db.mu.
func (db *DB) tabletIndexLocked(key []byte) int {
	lo, hi := 0, len(db.tablets)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if lessOrEqual(db.tablets[mid].start, key) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// tabletsInRange appends to out the tablets intersecting [begin, end);
// nil end means unbounded.
func (db *DB) tabletsInRange(out []*tablet, begin, end []byte) []*tablet {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i := 0
	if begin != nil {
		i = db.tabletIndexLocked(begin)
	}
	for ; i < len(db.tablets); i++ {
		t := db.tablets[i]
		if end != nil && t.start != nil && lessOrEqual(end, t.start) {
			break
		}
		out = append(out, t)
	}
	return out
}

// SnapshotGet performs a lock-free consistent read of key at ts,
// returning the value and its version (commit) timestamp. It blocks until
// the owning tablet's safe time reaches ts so the result reflects every
// transaction with a commit timestamp <= ts.
func (db *DB) SnapshotGet(ctx context.Context, key []byte, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool, error) {
	if err := fault.Point(ctx, fault.SpannerRead); err != nil {
		db.sampleFault(key)
		return nil, 0, false, err
	}
	counted := false
	for {
		t := db.tabletFor(key)
		if t == nil {
			return nil, 0, false, ErrClosed
		}
		waited, err := t.waitSafe(ctx, ts, func(txn *Txn) bool { return txn.writesKey(key) })
		if waited && !counted {
			counted = true
			db.stats.snapWaits.Add(1)
		}
		if err != nil {
			return nil, 0, false, err
		}
		t.recordOp(1, keyviz.OpRead)
		row := [1]LockedRow{{Key: key}}
		if err := t.readAt(ctx, row[:], ts); err != nil {
			return nil, 0, false, err
		}
		if !t.ownsKey(key) {
			// A split or merge moved the key between resolution and the
			// read; re-resolve the owner.
			continue
		}
		db.stats.reads.Add(1)
		return row[0].Value, row[0].TS, row[0].OK, nil
	}
}

// readOwnedBatch reads the newest version visible at ts of each row,
// sorted by key, for locked transactional reads (which need no safe-time
// wait): it cuts the rows into per-tablet runs in one pass, reads each
// run in one engine call, and re-resolves the rest of a run that a
// concurrent split or merge moved mid-read. Each row's result is filled
// in place.
func (db *DB) readOwnedBatch(ctx context.Context, rows []LockedRow, ts truetime.Timestamp) error {
	for i := 0; i < len(rows); {
		db.mu.RLock()
		if len(db.tablets) == 0 {
			db.mu.RUnlock()
			return ErrClosed
		}
		n := db.tabletIndexLocked(rows[i].Key)
		t, j := db.tablets[n], len(rows)
		if n+1 < len(db.tablets) {
			run, _ := slices.BinarySearchFunc(rows[i:], db.tablets[n+1].start, compareRow)
			j = i + run
		}
		db.mu.RUnlock()
		t.recordOp(int64(j-i), keyviz.OpRead)
		if err := t.readAt(ctx, rows[i:j], ts); err != nil {
			return err
		}
		// A tablet keeps its start, so what a split or merge took from it
		// is a suffix of the run.
		for ; i < j && t.ownsKey(rows[i].Key); i++ {
		}
	}
	db.stats.reads.Add(int64(len(rows)))
	return nil
}

// ScanRow is one row produced by a scan: the storage engine's row, as it
// came off the engine (or the wire).
type ScanRow = storage.Row

// SnapshotScan performs a lock-free consistent scan of [begin, end) at
// ts, in ascending (or descending if reverse, by storage.ScanDescending)
// key order, calling fn for each row until fn returns false or the range
// is exhausted.
func (db *DB) SnapshotScan(ctx context.Context, begin, end []byte, ts truetime.Timestamp, reverse bool, fn func(ScanRow) bool) error {
	if reverse {
		var err error
		storage.ScanDescending(fn, func(keep func(ScanRow) bool) bool {
			err = db.SnapshotScan(ctx, begin, end, ts, false, keep)
			return err == nil
		})
		return err
	}
	if err := fault.Point(ctx, fault.SpannerRead); err != nil {
		db.sampleFault(begin)
		return err
	}
	db.stats.scans.Add(1)
	lo := begin
	var buf [4]*tablet
	counted := false
	for {
		tablets := db.tabletsInRange(buf[:0], lo, end)
		var last []byte
		restart := false
		for _, t := range tablets {
			waited, err := t.waitSafe(ctx, ts, func(txn *Txn) bool { return txn.writesIn(lo, end) })
			if waited && !counted {
				counted = true
				db.stats.snapWaits.Add(1)
			}
			if err != nil {
				return err
			}
			t.recordOp(1, keyviz.OpScan)
			more, valid, emitted, err := t.scanAt(ctx, lo, end, ts, fn)
			if emitted != nil {
				last = emitted
			}
			if err != nil || !more {
				return err
			}
			if !valid {
				// A split or merge migrated part of the range, or the
				// engine crashed, mid-scan.
				restart = true
				break
			}
		}
		if !restart {
			return nil
		}
		// Re-resolve and resume after the last row already delivered;
		// rows re-read at the same ts are identical, so the restart is
		// invisible to fn.
		if last != nil {
			lo = storage.KeyAfter(last)
		}
	}
}

// lessOrEqual reports a <= b treating nil a as -infinity.
func lessOrEqual(a, b []byte) bool {
	if a == nil {
		return true
	}
	return bytes.Compare(a, b) <= 0
}
