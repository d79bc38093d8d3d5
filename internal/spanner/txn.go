package spanner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

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
	writes []storage.Write
	// latest maps a written key to its last position in writes, built by
	// the first read that follows a write and kept up from then on; a
	// transaction that reads before it writes never pays for it.
	latest map[string]int
	// held are the lock-table keys this transaction holds; each key is
	// the one string the lock table holds too.
	held map[string]lockMode
	// cached are row versions read by PrefetchForUpdate under exclusive
	// locks this transaction still holds, so they cannot change under us;
	// later Gets on these keys are served locally. Buffered writes shadow
	// the cache (the write buffer is always consulted first).
	cached map[string]storage.BatchGet
	// msgs are transactional messages delivered only on commit.
	msgs []Message
}

// Begin starts a read-write transaction.
func (db *DB) Begin() *Txn {
	return &Txn{db: db, held: map[string]lockMode{}}
}

// buffered returns the transaction's latest write to key, if any,
// building latest if writes were buffered without it.
func (t *Txn) buffered(key []byte) (storage.Write, bool) {
	if t.latest == nil && len(t.writes) > 0 {
		t.latest = make(map[string]int, len(t.writes))
		for i, w := range t.writes {
			t.latest[string(w.Key)] = i
		}
	}
	if i, ok := t.latest[string(key)]; ok {
		return t.writes[i], true
	}
	return storage.Write{}, false
}

func (t *Txn) buffer(w storage.Write) {
	if t.writes == nil {
		t.writes = make([]storage.Write, 0, 8) // a document and its index rows
	}
	t.writes = append(t.writes, w)
	if t.latest != nil {
		t.latest[string(w.Key)] = len(t.writes) - 1
	}
}

// lock acquires key in mode for the transaction.
func (t *Txn) lock(ctx context.Context, key []byte, mode lockMode) error {
	if cur, ok := t.held[string(key)]; ok && (cur == lockExclusive || cur == mode) {
		return nil
	}
	if err := fault.Point(ctx, fault.SpannerLockWait); err != nil {
		t.db.sampleFault(key)
		return err
	}
	k := string(key) // the row key's one copy: held and the lock table share it
	start := t.db.clock.Now().Latest
	if err := t.db.locks.acquire(ctx, t, k, mode, t.db.lockTimeout); err != nil {
		t.db.stats.lockTimeout.Add(1)
		t.db.met.lockTimeout.With(reqctx.From(ctx).DB).Inc()
		return err
	}
	wait := t.db.clock.Now().Latest.Sub(start)
	t.db.met.lockWait.With(reqctx.From(ctx).DB).Record(wait)
	// Lock-wait heat lands on the tablet owning the contended key — the
	// per-range contention signal a heatmap is for.
	if t.db.kv.Armed() {
		if tab := t.db.tabletFor(key); tab != nil {
			t.db.kv.Sample(keyviz.SrcTablet, tab.id, keyviz.OpLockWait, 1, 0, wait)
		}
	}
	t.held[k] = mode
	return nil
}

// Get reads key with a shared lock (or exclusive if forUpdate), seeing
// the transaction's own buffered writes.
func (t *Txn) Get(ctx context.Context, key []byte, forUpdate bool) ([]byte, bool, error) {
	v, _, ok, err := t.GetVersioned(ctx, key, forUpdate)
	return v, ok, err
}

// GetVersioned is Get returning also the row's version (commit)
// timestamp; the transaction's own buffered writes read back with a zero
// timestamp (they have no commit timestamp yet).
func (t *Txn) GetVersioned(ctx context.Context, key []byte, forUpdate bool) ([]byte, truetime.Timestamp, bool, error) {
	if t.done {
		return nil, 0, false, ErrTxnDone
	}
	if w, ok := t.buffered(key); ok {
		if w.Delete {
			return nil, 0, false, nil
		}
		return w.Value, 0, true, nil
	}
	mode := lockShared
	if forUpdate {
		mode = lockExclusive
	}
	if err := fault.Point(ctx, fault.SpannerRead); err != nil {
		return nil, 0, false, err
	}
	if c, ok := t.cached[string(key)]; ok {
		// Prefetched under an exclusive lock this transaction still
		// holds: the committed version cannot have changed.
		return c.Value, c.TS, c.OK, nil
	}
	if err := t.lock(ctx, key, mode); err != nil {
		return nil, 0, false, err
	}
	v, vts, ok, err := t.db.readOwned(ctx, key, truetime.Max)
	if err != nil {
		return nil, 0, false, err
	}
	t.db.stats.reads.Add(1)
	return v, vts, ok, nil
}

// PrefetchForUpdate locks each distinct key exclusively (in first-
// occurrence order, exactly as a per-key Get loop would) and reads the
// current versions with one batched engine call per owning tablet,
// seeding the transaction's read cache. Later Gets on these keys are
// served locally — on a clustered deployment this turns a commit's
// per-row read RPCs into one round trip per tablet. Keys already read
// or written by this transaction are skipped.
func (t *Txn) PrefetchForUpdate(ctx context.Context, keys [][]byte) error {
	if t.done {
		return ErrTxnDone
	}
	if err := fault.Point(ctx, fault.SpannerRead); err != nil {
		return err
	}
	fetch := make([][]byte, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, key := range keys {
		k := string(key)
		if _, already := t.cached[k]; seen[k] || already {
			continue
		}
		if _, buffered := t.buffered(key); buffered {
			continue
		}
		seen[k] = true
		if err := t.lock(ctx, key, lockExclusive); err != nil {
			return err
		}
		fetch = append(fetch, key)
	}
	if len(fetch) == 0 {
		return nil
	}
	res, err := t.db.readOwnedBatch(ctx, fetch, truetime.Max)
	if err != nil {
		return err
	}
	if t.cached == nil {
		t.cached = make(map[string]storage.BatchGet, len(fetch))
	}
	for i, key := range fetch {
		t.cached[string(key)] = res[i]
	}
	return nil
}

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

// Message buffers a transactional message, delivered to topic subscribers
// only if the transaction commits. The transaction takes ownership of
// payload.
func (t *Txn) Message(topic string, payload []byte) {
	t.msgs = append(t.msgs, Message{Topic: topic, Payload: payload})
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
	t.db.locks.release(t, t.held)
}

// writesKey reports whether a prepared transaction writes key: Commit
// sorts writes before it prepares and then leaves them alone.
func (t *Txn) writesKey(key []byte) bool {
	_, ok := slices.BinarySearchFunc(t.writes, key, func(w storage.Write, k []byte) int { return bytes.Compare(w.Key, k) })
	return ok
}

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
	go func() {
		for _, p := range participants[from:] {
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
		for _, p := range participants {
			p.tab.finish(t)
		}
		db.locks.release(t, t.held)
	}()
}

// Commit atomically applies the buffered writes at a TrueTime timestamp
// within [minTS, maxTS] (Zero/Max mean unconstrained). It acquires
// exclusive locks on every written row, runs two-phase commit across the
// participant tablets, pays the replication quorum latency, performs
// commit wait, and returns the commit timestamp.
func (t *Txn) Commit(ctx context.Context, minTS, maxTS truetime.Timestamp) (_ truetime.Timestamp, retErr error) {
	ctx, end := reqctx.StartSpan(ctx, "spanner.txn.commit")
	defer func() { end(retErr) }()
	dbID := reqctx.From(ctx).DB
	if t.done {
		return 0, ErrTxnDone
	}
	// Commit latency for the heatmap's sketch, measured only when the
	// collector is armed (the check is one atomic load).
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
	t.writes, t.latest = writes, nil
	for _, w := range writes {
		if err := t.lock(ctx, w.Key, lockExclusive); err != nil {
			t.Abort()
			return 0, fmt.Errorf("acquiring commit locks: %w", err)
		}
	}

	// Cut the sorted writes into participant tablets and register prepare
	// bounds under db.mu so no split can migrate rows between grouping and
	// apply (maybeSplit holds db.mu exclusively and skips prepared
	// tablets).
	bound := t.db.clock.Now().Earliest
	var participants []participant
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
	ts := t.db.clock.Now().Latest
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

	// Replication: pay the quorum latency (doubled for multi-tablet
	// two-phase commits, which require an extra round), plus optional
	// size- and row-count-dependent components.
	var delay time.Duration
	if t.db.commitDelay != nil {
		delay = t.db.commitDelay()
		if len(participants) > 1 {
			delay += t.db.commitDelay()
		}
	}
	if t.db.commitBytesDelay != nil {
		total := 0
		for _, w := range writes {
			total += len(w.Key) + len(w.Value)
		}
		delay += t.db.commitBytesDelay(total)
	}
	if t.db.commitRowDelay != nil {
		delay += t.db.commitRowDelay(len(writes))
	}
	if delay > 0 {
		t.db.clock.Sleep(delay)
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
	t.db.deliver(ctx, t.msgs, ts)
	t.db.maybeSplit()
	return ts, nil
}
