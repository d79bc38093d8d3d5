package spanner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"firestore/internal/btree"
	"firestore/internal/fault"
	"firestore/internal/keyviz"
	"firestore/internal/reqctx"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// Txn is a lock-based read-write transaction. Reads take row locks;
// writes are buffered and applied atomically at a TrueTime commit
// timestamp via two-phase commit across the tablets involved. Txn is not
// safe for concurrent use by multiple goroutines (like sql.Tx).
type Txn struct {
	db   *DB
	done bool

	// writes is the write buffer in arrival order. Put and Delete own
	// their arguments and append them as they are; Commit sorts it stably
	// by key, keeps the last write of each key, and hands each participant
	// tablet its sub-slice — no byte is copied between caller and engine.
	// writeBuf backs it for a document and its index rows: with it the
	// Txn is 688 bytes, a 704-byte size class, less than the 240-byte Txn
	// and the eight-write array it replaces, and a larger commit regrows
	// to sixteen writes, as it did from that array.
	writes   []storage.Write
	writeBuf [8]storage.Write
	// latest indexes writes by key, mapping each key (the first written
	// slice of it) to its last position in writes. The first read that
	// follows a write builds it and every later write keeps it up; a
	// transaction that reads before it writes never pays for it.
	latest btree.Tree[int]
	// held are the lock-table entries this transaction holds, each once;
	// the table keys them by the transaction's own key slices.
	held      []*lockEntry
	heldFirst [8]*lockEntry // backing array of a document's lock set
	// cached are the rows locked reads read, sorted by key. Their locks
	// are held until the transaction ends, so no other transaction can
	// write them; a later read is served from here once it holds the lock
	// it asks for. Buffered writes shadow the cache (the write buffer is
	// always consulted first). first backs a single cached row.
	cached []LockedRow
	first  [1]LockedRow
}

// Begin starts a read-write transaction.
func (db *DB) Begin() *Txn {
	t := &Txn{db: db}
	t.held, t.writes = t.heldFirst[:0], t.writeBuf[:0]
	return t
}

// buffered returns the transaction's latest write to key, if any,
// building latest if writes were buffered without it.
func (t *Txn) buffered(key []byte) (storage.Write, bool) {
	if t.latest.Len() == 0 {
		for i, w := range t.writes {
			t.latest.Set(w.Key, i)
		}
	}
	if i := t.latest.Get(key); i != nil {
		return t.writes[*i], true
	}
	return storage.Write{}, false
}

func (t *Txn) buffer(w storage.Write) {
	t.writes = append(t.writes, w)
	if t.latest.Len() > 0 {
		t.latest.Set(w.Key, len(t.writes)-1)
	}
}

// lock acquires key in mode for the transaction, waiting up to timeout
// (zero: not at all) for another transaction to release it. A key it
// already holds in mode or a stronger one is a no-op.
func (t *Txn) lock(ctx context.Context, key []byte, mode lockMode, timeout time.Duration) error {
	if t.db.locks.holds(t, key, mode) {
		return nil
	}
	if err := fault.Point(ctx, fault.SpannerLockWait); err != nil {
		t.db.sampleFault(key)
		return err
	}
	waited, err := t.db.locks.acquire(ctx, t, key, mode, timeout)
	if err != nil {
		if timeout > 0 {
			t.db.stats.lockTimeout.Add(1)
			t.db.met.lockTimeout.With(reqctx.From(ctx).DB).Inc()
		}
		return err
	}
	t.db.met.lockWait.With(reqctx.From(ctx).DB).Record(waited)
	// Lock-wait heat lands on the tablet owning the contended key — the
	// per-range contention signal a heatmap is for.
	if t.db.kv.Armed() {
		if tab := t.db.tabletFor(key); tab != nil {
			t.db.kv.Sample(keyviz.SrcTablet, tab.id, keyviz.OpLockWait, 1, 0, waited)
		}
	}
	return nil
}

// Get reads key with a shared lock (or exclusive if forUpdate), seeing
// the transaction's own buffered writes. The transaction keeps key until
// it ends (the lock table indexes the lock under it), so the caller must
// not modify it before then.
func (t *Txn) Get(ctx context.Context, key []byte, forUpdate bool) ([]byte, bool, error) {
	v, _, ok, err := t.GetVersioned(ctx, key, forUpdate)
	return v, ok, err
}

// GetVersioned is Get returning also the row's version (commit)
// timestamp; the transaction's own buffered writes read back with a zero
// timestamp (they have no commit timestamp yet). It keeps key like Get.
func (t *Txn) GetVersioned(ctx context.Context, key []byte, forUpdate bool) ([]byte, truetime.Timestamp, bool, error) {
	r := [1]LockedRow{{Key: key, Exclusive: forUpdate}}
	err := t.lockRead(ctx, r[:], t.db.lockTimeout)
	return r[0].Value, r[0].TS, r[0].OK, err
}

// TryGet is GetVersioned under a shared lock it does not wait for: a row
// another transaction holds exclusively aborts the read (ErrAborted) at
// once. It is for a read discovered after the transaction took its lock
// set, which would otherwise be the one lock taken out of key order. It
// keeps key like Get.
func (t *Txn) TryGet(ctx context.Context, key []byte) (storage.BatchGet, error) {
	r := [1]LockedRow{{Key: key}}
	err := t.lockRead(ctx, r[:], 0)
	return r[0].BatchGet, err
}

// LockedRow is one row of a transaction's lock set: the caller names the
// key and the mode, and LockRead fills in what the row holds.
type LockedRow struct {
	Key       []byte
	Exclusive bool
	storage.BatchGet
}

// LockRead takes a lock set in one pass and reads it. The rows are
// locked in key order, a key named twice once in the stronger of its
// modes, so transactions that declare their lock sets up front take
// their locks in one global order and cannot deadlock each other. Every
// row not yet read is then read with one engine call per owning tablet
// (one round trip per tablet on a clustered deployment) and cached for
// the transaction's later reads. Each row's result is filled in place. A
// row the transaction wrote reads back as written (with a zero TS) and is
// not locked until Commit. The transaction keeps every row's Key until
// it ends, like Get's.
func (t *Txn) LockRead(ctx context.Context, rows []LockedRow) error {
	return t.lockRead(ctx, rows, t.db.lockTimeout)
}

func (t *Txn) lockRead(ctx context.Context, rows []LockedRow, timeout time.Duration) error {
	if t.done {
		return ErrTxnDone
	}
	var buf [16]int
	order := buf[:0]
	for i := range rows {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(rows[a].Key, rows[b].Key) })
	cached := t.cached
	if cached == nil {
		cached = t.first[:0]
	}
	n := len(cached) // cached[n:] are the rows to read
	for i := 0; i < len(order); {
		key, mode := rows[order[i]].Key, lockShared
		for ; i < len(order) && bytes.Equal(rows[order[i]].Key, key); i++ {
			if rows[order[i]].Exclusive {
				mode = lockExclusive
			}
		}
		if _, ok := t.buffered(key); ok {
			continue
		}
		// The lock first: a row cached under a shared lock answers a
		// read for update only once the lock is upgraded.
		if err := t.lock(ctx, key, mode, timeout); err != nil {
			return err
		}
		if _, ok := t.local(key); !ok {
			cached = append(cached, LockedRow{Key: key})
		}
	}
	if n < len(cached) {
		if err := fault.Point(ctx, fault.SpannerRead); err != nil {
			return err
		}
		if err := t.db.readOwnedBatch(ctx, cached[n:], truetime.Max); err != nil {
			return err
		}
		slices.SortFunc(cached, func(a, b LockedRow) int { return bytes.Compare(a.Key, b.Key) })
	}
	t.cached = cached
	for i := range rows {
		rows[i].BatchGet, _ = t.local(rows[i].Key)
	}
	return nil
}

// local answers a read of key from the transaction itself: its buffered
// write, or the row a locked read cached.
func (t *Txn) local(key []byte) (storage.BatchGet, bool) {
	if w, ok := t.buffered(key); ok {
		return storage.BatchGet{Value: w.Value, OK: !w.Delete}, true
	}
	i, ok := slices.BinarySearchFunc(t.cached, key, compareRow)
	if !ok {
		return storage.BatchGet{}, false
	}
	return t.cached[i].BatchGet, true
}

func compareRow(r LockedRow, k []byte) int { return bytes.Compare(r.Key, k) }

// Put buffers an insert-or-update of key. The transaction takes
// ownership of both slices: they reach the storage engine as they are
// and the engine retains them, so the caller must not modify either
// afterwards (DESIGN.md "Write path: who owns the bytes").
func (t *Txn) Put(key, value []byte) {
	t.buffer(storage.Write{Key: key, Value: value})
}

// Delete buffers a deletion of key, taking ownership of it like Put.
func (t *Txn) Delete(key []byte) {
	t.buffer(storage.Write{Key: key, Delete: true})
}

// Abort releases the transaction's locks without applying writes.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.finish()
	t.db.stats.aborts.Add(1)
	t.db.met.aborts.With("").Inc()
}

func (t *Txn) finish() {
	t.done = true
	t.db.locks.release(t)
}

// writesKey reports whether a prepared transaction writes key: Commit
// sorts writes before it prepares and then leaves them alone.
func (t *Txn) writesKey(key []byte) bool {
	_, ok := slices.BinarySearchFunc(t.writes, key, compareWrite)
	return ok
}

// writesIn reports whether a prepared transaction writes a key in
// [lo, hi) (nil hi = unbounded), by the same one binary search.
func (t *Txn) writesIn(lo, hi []byte) bool {
	i, _ := slices.BinarySearchFunc(t.writes, lo, compareWrite)
	return i < len(t.writes) && (hi == nil || bytes.Compare(t.writes[i].Key, hi) < 0)
}

func compareWrite(w storage.Write, k []byte) int { return bytes.Compare(w.Key, k) }

// participant is one tablet of a commit and its run of the sorted writes.
type participant struct {
	tab    *tablet
	writes []storage.Write
}

// rollForwardAsync drives an interrupted phase 2 to completion in the
// background: participants[from:] retry their applies (recovering
// crashed engines between attempts) until they succeed, and only then
// are the prepare records and row locks released. Snapshot readers
// block on safe time and transactional readers on the row locks, so the
// partially applied transaction is never observable — the writes become
// visible all-at-once or, until then, not at all. Re-applying a batch
// whose first attempt did reach the WAL is benign: reads resolve the
// newest version at or below ts, so a duplicate at the same timestamp
// is invisible.
func (t *Txn) rollForwardAsync(participants []participant, from int, ts truetime.Timestamp) {
	t.done = true // the txn handle is spent; a later Abort is a no-op
	db := t.db
	db.stats.rollForwards.Add(1)
	db.met.rollForwards.With("").Inc()
	own := slices.Clone(participants)
	go func() {
		for _, p := range own[from:] {
			// The client's ctx may be cancelled, but the roll-forward
			// must outlive it (as a Paxos group's would), so retries run
			// on a background context. Prepared tablets are exempt from
			// split and merge, so the participant set stays valid.
			for !db.isClosed() {
				if err := p.tab.apply(context.Background(), p.writes, ts); err == nil { //fslint:ignore ctxdiscipline commit-lifecycle root: roll-forward must outlive the request that committed
					break
				}
				db.clock.Sleep(time.Millisecond)
			}
		}
		for _, p := range own {
			p.tab.finish(t)
		}
		db.locks.release(t)
	}()
}

// Commit atomically applies the buffered writes at a TrueTime timestamp
// within [minTS, maxTS] (Zero/Max mean unconstrained). It acquires
// exclusive locks on every written row, runs two-phase commit across the
// participant tablets, pays the replication quorum latency, performs
// commit wait, and returns the commit timestamp.
func (t *Txn) Commit(ctx context.Context, minTS, maxTS truetime.Timestamp) (_ truetime.Timestamp, retErr error) {
	ctx, span := reqctx.StartSpan(ctx, "spanner.txn.commit")
	defer func() { span.End(retErr) }()
	dbID := reqctx.From(ctx).DB
	if t.done {
		return 0, ErrTxnDone
	}
	// Commit latency for the heatmap's sketch, measured only when the
	// collector is armed (non-nil).
	var kvStart truetime.Timestamp
	if t.db.kv.Armed() {
		kvStart = t.db.clock.Now().Latest
	}
	if maxTS == 0 {
		maxTS = truetime.Max
	}
	// Read-only transactions release locks and are done; Spanner assigns
	// them no commit timestamp.
	if len(t.writes) == 0 {
		t.finish()
		t.db.stats.commits.Add(1)
		t.db.met.commits.With(dbID).Inc()
		return t.db.clock.Now().Latest, nil
	}

	// Sort by key: a deterministic lock order avoids self-inflicted
	// deadlocks between writers of the same key sets, and each tablet's
	// writes become one contiguous run. The sort is stable, so of several
	// writes to one key the last buffered is the last of its run — the one
	// that wins.
	slices.SortStableFunc(t.writes, func(a, b storage.Write) int { return bytes.Compare(a.Key, b.Key) })
	writes := t.writes[:0]
	for i, w := range t.writes {
		if i+1 == len(t.writes) || !bytes.Equal(w.Key, t.writes[i+1].Key) {
			writes = append(writes, w)
		}
	}
	t.writes, t.latest = writes, btree.Tree[int]{}
	for _, w := range writes {
		if err := t.lock(ctx, w.Key, lockExclusive, t.db.lockTimeout); err != nil {
			t.Abort()
			return 0, fmt.Errorf("acquiring commit locks: %w", err)
		}
	}

	// Cut the sorted writes into participant tablets and register prepare
	// bounds under db.mu so no split can migrate rows between grouping and
	// apply (maybeSplit holds db.mu exclusively and skips prepared
	// tablets).
	bound := t.db.clock.Now().Earliest
	var partBuf [2]participant // a roll-forward, which outlives Commit, copies it
	participants := partBuf[:0]
	t.db.mu.RLock()
	if len(t.db.tablets) == 0 {
		t.db.mu.RUnlock()
		t.Abort()
		return 0, ErrClosed
	}
	for i, w := range writes {
		tab := t.db.tablets[t.db.tabletIndexLocked(w.Key)]
		if n := len(participants); n == 0 || participants[n-1].tab != tab {
			tab.prepare(t, bound)
			participants = append(participants, participant{tab: tab, writes: writes[i:i]})
		}
		p := &participants[len(participants)-1]
		p.writes = p.writes[:len(p.writes)+1]
	}
	t.db.mu.RUnlock()

	// Choose the commit timestamp: after every clock reading so far and
	// after each participant's last applied commit.
	now := t.db.clock.Now()
	ts := now.Latest
	if minTS > ts {
		ts = minTS
	}
	for _, p := range participants {
		p.tab.mu.Lock()
		if p.tab.lastCommit >= ts {
			ts = p.tab.lastCommit + 1
		}
		p.tab.mu.Unlock()
	}
	if ts > maxTS {
		for _, p := range participants {
			p.tab.finish(t)
		}
		t.Abort()
		return 0, fmt.Errorf("%w: need %d > max %d", ErrCommitWindow, ts, maxTS)
	}
	// No tablet holds a version at ts before TrueTime has passed
	// ts − MaxCommitLead (ReadHorizon rests on it). A timestamp leads the
	// clock only by its +1 steps past earlier commits and the cache's
	// minimum, so this waits only on a burst of commits that outpaced the
	// clock or on an uncertainty wider than MaxCommitLead/2, and never
	// longer than the commit wait below.
	if floor := ts.Add(-MaxCommitLead); floor >= now.Earliest {
		t.db.clock.CommitWait(floor)
	}

	// Injected quorum fault: an error here models losing the replication
	// quorum after prepare — the commit aborts cleanly, no tablet applied
	// anything; injected latency models a quorum slowdown.
	if err := fault.Point(ctx, fault.SpannerCommitQuorum); err != nil {
		if t.db.kv.Armed() {
			for _, p := range participants {
				t.db.kv.Sample(keyviz.SrcTablet, p.tab.id, keyviz.OpFault, 1, 0, 0)
			}
		}
		for _, p := range participants {
			p.tab.finish(t)
		}
		t.Abort()
		return 0, err
	}

	// Replication: pay the modelled quorum latency for this commit's
	// shape.
	if t.db.commitDelay != nil {
		total := 0
		for _, w := range writes {
			total += len(w.Key) + len(w.Value)
		}
		if delay := t.db.commitDelay(len(participants), total, len(writes)); delay > 0 {
			t.db.clock.Sleep(delay)
		}
	}

	// Phase 2: apply to every participant, then commit wait so the
	// timestamp is guaranteed past before anyone learns of it. Once
	// phase 2 starts the transaction is committed — like a Paxos group,
	// a participant that crashes mid-apply recovers (manifest + WAL
	// replay) and the apply rolls forward rather than aborting, so the
	// batch stays atomic across tablets.
	for i, p := range participants {
		if err := p.tab.applyRollForward(ctx, p.writes, ts); err != nil {
			if i == 0 && !errors.Is(err, storage.ErrCrashed) {
				// Every attempt on the first participant failed cleanly
				// (nothing reached any WAL), so no participant holds
				// durable state: aborting keeps the batch atomic.
				for _, p := range participants {
					p.tab.finish(t)
				}
				t.Abort()
				return 0, err
			}
			// Some participant may already hold the writes durably at ts
			// (earlier participants definitely do; a crashed engine's WAL
			// outcome is unknown). Releasing locks now would expose a
			// partially applied transaction, so instead phase 2 keeps
			// rolling forward in the background while the row locks and
			// prepare bounds pin the state out of every reader's view.
			// The caller sees the outcome as unknown (Unavailable) and
			// its retry finds the transaction fully applied.
			t.rollForwardAsync(participants, i, ts)
			return 0, fmt.Errorf("%w: %v", ErrOutcomeUnknown, err)
		}
		p.tab.recordOp(int64(len(p.writes)), keyviz.OpCommit)
	}
	// Injected tablet crash AFTER the applies are durable: the tablet
	// drops its volatile engine state and recovers from disk before the
	// commit is acknowledged — a strong read right after Commit returns
	// must still observe this transaction.
	if fault.Decide(ctx, fault.TabletCrashRestart).Kind == fault.KindCrash {
		for _, p := range participants {
			p.tab.crashRestart()
		}
	}
	reqctx.Annotate(ctx, "participants", strconv.Itoa(len(participants)))
	cwStart := t.db.clock.Now().Latest
	t.db.clock.CommitWait(ts)
	t.db.met.commitWait.With(dbID).Record(t.db.clock.Now().Latest.Sub(cwStart))
	t.db.met.twoPCParticipants.With(dbID).Add(int64(len(participants)))
	// Per-participant commit bytes and end-to-end commit latency; ops
	// were already counted by recordOp at apply time, so n is zero.
	if t.db.kv.Armed() {
		lat := t.db.clock.Now().Latest.Sub(kvStart)
		for _, p := range participants {
			var nbytes int64
			for _, w := range p.writes {
				nbytes += int64(len(w.Key) + len(w.Value))
			}
			t.db.kv.Sample(keyviz.SrcTablet, p.tab.id, keyviz.OpCommit, 0, nbytes, lat)
		}
	}
	for _, p := range participants {
		p.tab.finish(t)
	}
	t.finish()

	t.db.stats.commits.Add(1)
	t.db.met.commits.With(dbID).Inc()
	if len(participants) > 1 {
		t.db.met.twoPCCommits.With(dbID).Inc()
	}
	t.db.maybeSplit()
	return ts, nil
}
