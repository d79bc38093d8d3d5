package spanner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"firestore/internal/keyviz"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// tablet owns the key range [start, end) (nil start/end = unbounded).
// Row state lives behind a storage.Engine: the in-memory engine by
// default, or a durable WAL+segment engine when the DB is configured
// with a disk factory. The tablet layer keeps only coordination state —
// prepared-transaction bounds (safe time), load accounting, and the
// last applied commit timestamp.
type tablet struct {
	// db owns the tablet; used for engine recovery after a crash.
	db *DB
	// clock is the owning DB's TrueTime clock; load windows are measured
	// on it so split/merge decisions replay deterministically.
	clock truetime.Clock
	// id is the tablet's stable storage identity (the factory's tablet
	// directory name survives restarts under it).
	id uint64

	mu    sync.Mutex
	cond  *sync.Cond
	start []byte
	end   []byte
	// store is the row engine. Swapped under mu by recoverTablet when
	// the engine crashes; readers grab the pointer, read, then re-check
	// Crashed() to discard results that raced the crash.
	store storage.Engine

	// retired is set (under mu) when a merge absorbs this tablet into its
	// left neighbor, just before the store is closed and destroyed. A
	// reader that resolved the tablet before the merge uses it to
	// distinguish "tablet no longer owns anything" from a genuine miss
	// and re-resolves via the DB instead of recovering a destroyed engine.
	retired bool

	// prepared holds the lower bound of the commit timestamp of each
	// transaction currently two-phase committing on this tablet. Snapshot
	// reads at ts wait while any bound <= ts (safe-time).
	prepared map[*Txn]truetime.Timestamp

	// lastCommit is the largest commit timestamp applied here.
	lastCommit truetime.Timestamp

	// load is an operation counter used for load-based splitting; it
	// decays via windowStart.
	load        int64
	windowStart truetime.Timestamp
}

func newTablet(db *DB, id uint64, store storage.Engine, start, end []byte) *tablet {
	t := &tablet{
		db:          db,
		clock:       db.clock,
		id:          id,
		start:       start,
		end:         end,
		store:       store,
		prepared:    map[*Txn]truetime.Timestamp{},
		windowStart: db.clock.Now().Latest,
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// engine returns the tablet's current row engine.
func (t *tablet) engine() storage.Engine {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.store
}

func (t *tablet) isRetired() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retired
}

// ownsKey reports whether the tablet still owns key: not retired by a
// merge and key within the current bounds (a split narrows end). Read
// paths check this AFTER reading the engine — split and merge mutate
// the engine while holding t.mu, so a read whose ownership check passes
// is ordered entirely before any migration of the key.
func (t *tablet) ownsKey(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.retired && lessOrEqual(t.start, key) &&
		(t.end == nil || bytes.Compare(key, t.end) < 0)
}

// loadWindow is the decay window for tablet load accounting.
const loadWindow = time.Second

func (t *tablet) recordOp(n int64, op keyviz.Op) {
	now := t.clock.Now().Latest
	t.mu.Lock()
	if now.Sub(t.windowStart) > loadWindow {
		t.load = 0
		t.windowStart = now
	}
	t.load += n
	t.mu.Unlock()
	// Heat attribution reuses the clock reading the load window already
	// paid for; a disarmed collector costs one atomic load here.
	t.db.kv.SampleAt(now, keyviz.SrcTablet, t.id, op, n, 0, 0)
}

// prepare registers txn's commit-timestamp lower bound for safe-time
// tracking.
func (t *tablet) prepare(txn *Txn, bound truetime.Timestamp) {
	t.mu.Lock()
	t.prepared[txn] = bound
	t.mu.Unlock()
}

// finish removes txn's prepare record (after apply or abort) and wakes
// snapshot readers.
func (t *tablet) finish(txn *Txn) {
	t.mu.Lock()
	delete(t.prepared, txn)
	t.mu.Unlock()
	t.cond.Broadcast()
}

// waitSafe blocks until no in-flight commit could receive a timestamp
// <= ts, making a snapshot read at ts stable. A point read passes its
// key and waits only for the prepared transactions that write it (the
// Spanner paper's fine-grained safe time, §4.2.3; DESIGN.md "Safe time
// is per key"); a range read passes nil and waits for all of them.
func (t *tablet) waitSafe(ctx context.Context, key []byte, ts truetime.Timestamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		blocked := false
		for txn, bound := range t.prepared {
			if bound <= ts && (key == nil || txn.writesKey(key)) {
				blocked = true
				break
			}
		}
		if !blocked {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Commits are short; poll via cond with a watchdog wake so a
		// cancelled context is noticed.
		waitCond(t.cond, 5*time.Millisecond)
	}
}

// waitCond waits on c with an upper bound, so loops can re-check ctx.
// Caller holds c.L.
func waitCond(c *sync.Cond, d time.Duration) {
	done := make(chan struct{})
	timer := time.AfterFunc(d, func() { c.Broadcast() })
	go func() {
		<-done
		timer.Stop()
	}()
	c.Wait()
	close(done)
}

// awaitRecovery is the retry step of a read that found engine e crashed:
// recover the tablet from disk, backing off on the clock when recovery
// itself fails (real storage trouble) — but never past the request's
// deadline: with a tablet server down for good, ctx's error, not a hang.
func (t *tablet) awaitRecovery(ctx context.Context, e storage.Engine) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !t.db.recoverTablet(t, e) {
		t.clock.Sleep(time.Millisecond)
	}
	return nil
}

// readAt returns the value of key visible at ts and its version
// timestamp. A result read off an engine that crashed mid-read is
// discarded and retried against the recovered engine.
func (t *tablet) readAt(ctx context.Context, key []byte, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool, error) {
	for {
		e := t.engine()
		v, vts, ok := e.Get(key, ts)
		if !e.Crashed() {
			return v, vts, ok, nil
		}
		if t.isRetired() {
			// A merge closed this engine for good; the caller's ownership
			// check re-resolves to the absorbing tablet.
			return nil, 0, false, nil
		}
		if err := t.awaitRecovery(ctx, e); err != nil {
			return nil, 0, false, err
		}
	}
}

// readBatchAt is readAt over many keys in one engine call when the
// engine supports batched reads (the cluster's remote engine coalesces
// the batch into a single round trip), falling back to per-key gets.
// Results align with keys.
func (t *tablet) readBatchAt(ctx context.Context, keys [][]byte, ts truetime.Timestamp) ([]storage.BatchGet, error) {
	for {
		e := t.engine()
		var res []storage.BatchGet
		if bg, ok := e.(storage.BatchGetter); ok {
			res = bg.GetBatch(keys, ts)
		} else {
			res = make([]storage.BatchGet, len(keys))
			for i, k := range keys {
				v, vts, ok := e.Get(k, ts)
				res[i] = storage.BatchGet{Value: v, TS: vts, OK: ok}
			}
		}
		if !e.Crashed() {
			return res, nil
		}
		if t.isRetired() {
			// Every key reads as missing; the caller's ownership check
			// re-resolves each to the absorbing tablet.
			return make([]storage.BatchGet, len(keys)), nil
		}
		if err := t.awaitRecovery(ctx, e); err != nil {
			return nil, err
		}
	}
}

// tabletScan is the state of one scanAt, pooled with stage already bound
// to it: Engine.Scan is an interface call, and a func literal handed
// through one is allocated with everything it captures, per scan.
type tabletScan struct {
	t           *tablet
	e           storage.Engine
	begin, end  []byte // the caller's range
	lo, hi      []byte // what of it t owned when the scan began
	fn          func(ScanRow) bool
	rows        *[]ScanRow
	last        []byte
	more, valid bool
	stage       func(ScanRow) bool
}

var tabletScans = sync.Pool{New: func() any {
	s := new(tabletScan)
	s.stage = func(r ScanRow) bool {
		*s.rows = append(*s.rows, r)
		return len(*s.rows) < storage.NextScanChunk(0) || s.emit()
	}
	return s
}}

// emit forwards the staged rows. They were read before this check, and
// split/merge migrate chains while holding t.mu: an unchanged clamp on a
// live engine means every one of them was read before any migration of
// the range, so validate, then emit, per chunk.
func (s *tabletScan) emit() bool {
	rows, crashed := *s.rows, s.e.Crashed()
	s.t.mu.Lock()
	lo, hi := clampRange(s.begin, s.end, s.t.start, s.t.end)
	s.valid = !crashed && !s.t.retired && sameBound(s.lo, lo) && sameBound(s.hi, hi)
	s.t.mu.Unlock()
	for i := 0; s.valid && s.more && i < len(rows); i++ {
		s.last = rows[i].Key
		s.more = s.fn(rows[i])
	}
	clear(rows)
	*s.rows = rows[:0]
	return s.valid && s.more
}

// scanAt iterates rows of [begin, end) ∩ [t.start, t.end) visible at ts,
// forwarding them to fn a chunk at a time as the engine streams them.
// more is false if fn stopped the scan. valid is false when the rows not
// yet emitted cannot be trusted: a split or merge changed what the
// tablet owns of [begin, end), or the engine crashed (it is recovered
// before returning). The caller re-resolves tablets and resumes after
// last, the key of the last row emitted (nil: none); at a fixed ts the
// re-read rows are identical.
func (t *tablet) scanAt(ctx context.Context, begin, end []byte, ts truetime.Timestamp, reverse bool, fn func(ScanRow) bool) (more, valid bool, last []byte, err error) {
	t.mu.Lock()
	lo, hi := clampRange(begin, end, t.start, t.end)
	e, retired := t.store, t.retired
	t.mu.Unlock()
	if retired {
		return true, false, nil, nil
	}
	s := tabletScans.Get().(*tabletScan)
	*s = tabletScan{t: t, e: e, begin: begin, end: end, lo: lo, hi: hi, fn: fn, rows: storage.GetRows(), more: true, valid: true, stage: s.stage}
	e.Scan(lo, hi, ts, reverse, s.stage)
	if s.valid && s.more {
		s.emit()
	}
	more, valid, last = s.more, s.valid, s.last
	storage.PutRows(s.rows)
	*s = tabletScan{stage: s.stage} // a pooled scan pins nothing
	tabletScans.Put(s)
	if e.Crashed() && !t.isRetired() {
		err = t.awaitRecovery(ctx, e)
	}
	return more, valid, last, err
}

// sameBound reports equality of two range bounds where nil means
// unbounded.
func sameBound(a, b []byte) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return bytes.Compare(a, b) == 0
}

// apply installs a set of writes at commit timestamp ts. An
// ErrCrashed-classified failure triggers tablet recovery (manifest load
// + WAL replay) before returning; the commit itself reports the error.
func (t *tablet) apply(ctx context.Context, writes []storage.Write, ts truetime.Timestamp) error {
	e := t.engine()
	if err := e.Apply(ctx, writes, ts); err != nil {
		if errors.Is(err, storage.ErrCrashed) {
			t.db.recoverTablet(t, e)
		}
		return err
	}
	t.mu.Lock()
	if ts > t.lastCommit {
		t.lastCommit = ts
	}
	t.mu.Unlock()
	return nil
}

// applyMaxAttempts bounds phase-2 roll-forward: a commit survives this
// many consecutive storage crashes before reporting the outcome
// unknown.
const applyMaxAttempts = 8

// applyRollForward applies writes at ts, recovering the engine and
// retrying on crash. A replayed record surviving a failed fsync can
// legally duplicate a version at the same timestamp; reads resolve the
// newest entry at or below ts, so the duplicate is benign.
func (t *tablet) applyRollForward(ctx context.Context, writes []storage.Write, ts truetime.Timestamp) error {
	var err error
	for attempt := 0; attempt < applyMaxAttempts; attempt++ {
		if err = t.apply(ctx, writes, ts); err == nil {
			return nil
		}
		if !errors.Is(err, storage.ErrCrashed) {
			// Injected clean failures (e.g. wal.append error mode) are
			// transient: nothing reached the log, retry.
			continue
		}
	}
	return err
}

// crashRestart simulates a tablet server crash immediately followed by
// restart: the volatile engine is dropped and the tablet recovers from
// disk (manifest + WAL replay). Used by the tablet.crash-restart fault
// site after a successful apply, so the recovered state must include
// the commit.
func (t *tablet) crashRestart() {
	e := t.engine()
	e.Close()
	t.db.recoverTablet(t, e)
}

// clampRange intersects [begin,end) with [start,end2), where nil means
// unbounded.
func clampRange(begin, end, start, end2 []byte) (lo, hi []byte) {
	lo = begin
	if start != nil && (lo == nil || bytes.Compare(start, lo) > 0) {
		lo = start
	}
	hi = end
	if end2 != nil && (hi == nil || bytes.Compare(end2, hi) < 0) {
		hi = end2
	}
	return lo, hi
}

// recoverTablet swaps in a freshly opened engine for t after failed
// crashed. Idempotent: concurrent observers of the same crash recover
// once. The prepared map and lock table survive (in a real deployment
// the 2PC coordinator would re-resolve participants; here commits that
// raced the crash abort and release their own state).
func (db *DB) recoverTablet(t *tablet, failed storage.Engine) bool {
	ok, recovered := t.swapRecoveredEngine(db.storage, failed)
	if recovered {
		db.stats.recoveries.Add(1)
		db.met.recoveries.With("").Inc()
	}
	return ok
}

// swapRecoveredEngine re-opens t's engine from disk if failed is still
// installed. It holds only t.mu (never db.mu — see recoverTablet).
// recovered reports that this call performed the swap (vs. losing the
// race or failing).
func (t *tablet) swapRecoveredEngine(fac storage.Factory, failed storage.Engine) (ok, recovered bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.retired {
		// Merged away and its directory destroyed; re-opening would
		// resurrect an empty tablet. Callers re-resolve ownership.
		return false, false
	}
	if t.store != failed {
		return true, false // someone else already recovered it
	}
	// Close first: after Close returns no stray append can land in the
	// tablet directory, so the re-open sees a quiesced file set.
	failed.Close()
	e, err := fac.Open(t.id, t.start, t.end)
	if err != nil {
		// Leave the crashed engine in place; the next observer retries.
		return false, false
	}
	if err := e.Commission(); err != nil {
		e.Close()
		return false, false
	}
	t.store = e
	if lc := e.LastDurable(); lc > t.lastCommit && lc != truetime.Max {
		t.lastCommit = lc
	}
	return true, true
}

// maybeSplit splits hot or oversized tablets and merges cold neighbors.
// Called opportunistically after commits.
func (db *DB) maybeSplit() {
	if db.splitThreshold == 0 && db.maxTabletRows == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := 0; i < len(db.tablets); i++ {
		t := db.tablets[i]
		t.mu.Lock()
		e := t.store
		n := e.Stats().Keys
		hot := db.splitThreshold > 0 && t.load > db.splitThreshold && n >= 2
		big := db.maxTabletRows > 0 && n > db.maxTabletRows
		if len(t.prepared) > 0 || e.Crashed() || !hot && !big {
			t.mu.Unlock()
			continue
		}
		// A durable engine counts a key once per layer that holds it, so
		// half its count can lie past its last key: halve again until a
		// key is there, rather than never split a tablet of hot keys.
		midKey, ok := e.KeyAt(n / 2)
		for i := n / 4; !ok && i > 0; i /= 2 {
			midKey, ok = e.KeyAt(i)
		}
		if !ok || (t.start != nil && bytes.Compare(midKey, t.start) <= 0) {
			t.mu.Unlock()
			continue
		}
		midKey = append([]byte(nil), midKey...)
		loadBefore := t.load
		right := db.splitLocked(t, e, midKey)
		t.mu.Unlock()
		if right == nil {
			continue
		}
		// Insert right after t.
		db.tablets = append(db.tablets, nil)
		copy(db.tablets[i+2:], db.tablets[i+1:])
		db.tablets[i+1] = right
		db.stats.splits.Add(1)
		db.met.splits.With("").Inc()
		// Annotate the decision with the triggering hot cell: the source
		// tablet and the load that crossed the threshold, plus the
		// per-child load after halving.
		trigger := "hot"
		if !hot {
			trigger = "big"
		}
		db.kv.Record(keyviz.EvSplit, keyviz.Event{
			Source:     keyviz.SrcTablet.String(),
			Shard:      t.id,
			Peer:       right.id,
			Key:        fmt.Sprintf("%q", midKey),
			HeatBefore: loadBefore,
			HeatAfter:  loadBefore / 2,
			Detail:     trigger,
		})
	}
	db.mergeColdLocked()
}

// splitLocked migrates [midKey, t.end) of t into a new tablet and
// returns it, or nil if the split could not start. Caller holds db.mu
// and t.mu. DESIGN.md "Tablet migration": the target opens pending, and
// its Commission is the point of no return — before it the source is
// every key's only durable owner and a failure abandons the target.
func (db *DB) splitLocked(t *tablet, e storage.Engine, midKey []byte) *tablet {
	rid := db.allocTabletID()
	re, err := db.storage.Open(rid, midKey, t.end)
	if err != nil {
		return nil
	}
	n, err := storage.CopyChains(re, e, midKey, nil)
	if err == nil && n > 0 {
		err = re.Commission()
	}
	if err != nil || n == 0 {
		re.Close()
		db.storage.Destroy(rid)
		return nil
	}
	// The target is the durable owner of [midKey, end) from here on — it
	// must NEVER be destroyed. Narrow the source, which masks the moved
	// chains there. If that fails the source engine has crashed and the
	// split still completes: the tablet's in-memory bounds clamp serving to
	// [start, midKey), recovery reopens it within them, and the next
	// restart's overlap resolution (later tablet wins) narrows it again.
	e.SetBounds(t.start, midKey) //nolint:errcheck
	right := newTablet(db, rid, re, midKey, t.end)
	right.lastCommit = t.lastCommit
	t.end = midKey
	t.load /= 2
	right.load = t.load
	return right
}

// mergeThresholdRows is the combined row bound under which two cold
// adjacent tablets merge.
const mergeThresholdRows = 64

// mergeColdLocked folds each cold right neighbor into its left neighbor.
// Caller holds db.mu.
func (db *DB) mergeColdLocked() {
	for i := 0; i+1 < len(db.tablets); i++ {
		a, b := db.tablets[i], db.tablets[i+1]
		a.mu.Lock()
		b.mu.Lock()
		absorbed, ok := db.absorbLocked(a, b)
		b.mu.Unlock()
		a.mu.Unlock()
		if !ok {
			continue
		}
		db.tablets = append(db.tablets[:i+1], db.tablets[i+2:]...)
		db.stats.merges.Add(1)
		db.met.merges.With("").Inc()
		// Both tablets were cold (load 0) by definition; annotate the
		// merge with the surviving row count for the timeline.
		db.kv.Record(keyviz.EvMerge, keyviz.Event{
			Source: keyviz.SrcTablet.String(),
			Shard:  a.id,
			Peer:   b.id,
			Detail: fmt.Sprintf("%d rows absorbed", absorbed),
		})
		i--
	}
}

// absorbLocked merges b into its left neighbor a if both are cold and
// small, and reports how many chains moved. Caller holds db.mu and both
// tablets' mu. DESIGN.md "Tablet migration": a widens first — an engine
// may drop what lies outside its bounds at any compaction — and b's
// Destroy is the point of no return: until then b holds the whole range
// and a restart resolves the overlap in its favour (the later tablet).
func (db *DB) absorbLocked(a, b *tablet) (int, bool) {
	cold := a.load == 0 && b.load == 0 &&
		len(a.prepared) == 0 && len(b.prepared) == 0 &&
		!a.store.Crashed() && !b.store.Crashed() &&
		a.store.Stats().Keys+b.store.Stats().Keys <= mergeThresholdRows
	if !cold || a.store.SetBounds(a.start, b.end) != nil {
		return 0, false
	}
	n, err := storage.CopyChains(a.store, b.store, nil, nil)
	if err != nil {
		// Give the range back: narrowing masks what was copied of it (if
		// a crashed instead, the next restart narrows it).
		a.store.SetBounds(a.start, a.end) //nolint:errcheck
		return 0, false
	}
	a.end = b.end
	if b.lastCommit > a.lastCommit {
		a.lastCommit = b.lastCommit
	}
	// Retire before closing: a stale reader holding b sees the flag,
	// treats the closed engine as "no longer owns anything", and
	// re-resolves to a instead of recovering the destroyed directory.
	b.retired = true
	b.store.Close()
	db.storage.Destroy(b.id)
	return n, true
}
