package spanner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"firestore/internal/fault"
	"firestore/internal/keyviz"
	"firestore/internal/reqctx"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// bufferedWrite is a pending row mutation in a transaction.
type bufferedWrite struct {
	key    []byte
	value  []byte
	delete bool
}

// Txn is a lock-based read-write transaction. Reads take row locks;
// writes are buffered and applied atomically at a TrueTime commit
// timestamp via two-phase commit across the tablets involved. Txn is not
// safe for concurrent use by multiple goroutines (like sql.Tx).
type Txn struct {
	db   *DB
	done bool

	// writes keyed by string(key); ordered on commit for determinism.
	writes map[string]bufferedWrite
	// held are the lock-table keys this transaction holds.
	held map[string]lockMode
	// cached are row versions read by PrefetchForUpdate under exclusive
	// locks this transaction still holds, so they cannot change under us;
	// later Gets on these keys are served locally. Buffered writes shadow
	// the cache (the writes map is always consulted first).
	cached map[string]storage.BatchGet
	// msgs are transactional messages delivered only on commit.
	msgs []Message
}

// Begin starts a read-write transaction.
func (db *DB) Begin() *Txn {
	return &Txn{
		db:     db,
		writes: map[string]bufferedWrite{},
		held:   map[string]lockMode{},
	}
}

// lock acquires key in mode for the transaction.
func (t *Txn) lock(ctx context.Context, key []byte, mode lockMode) error {
	k := string(key)
	if cur, ok := t.held[k]; ok && (cur == lockExclusive || cur == mode) {
		return nil
	}
	if err := fault.Point(ctx, fault.SpannerLockWait); err != nil {
		t.db.sampleFault(key)
		return err
	}
	start := t.db.clock.Now().Latest
	if err := t.db.locks.acquire(ctx, t, k, mode, t.db.lockTimeout); err != nil {
		t.db.mu.Lock()
		t.db.stats.LockTimeout++
		t.db.mu.Unlock()
		t.db.count("spanner.lock_timeout", reqctx.From(ctx).DB)
		return err
	}
	if t.db.obs != nil || t.db.kv.Armed() {
		wait := t.db.clock.Now().Latest.Sub(start)
		if t.db.obs != nil {
			t.db.obs.Histogram("spanner.lock_wait", dbLabel(reqctx.From(ctx).DB)).Record(wait)
		}
		// Lock-wait heat lands on the tablet owning the contended key —
		// the per-range contention signal a heatmap is for.
		if t.db.kv.Armed() {
			if tab := t.db.tabletFor(key); tab != nil {
				t.db.kv.Sample(keyviz.SrcTablet, tab.id, keyviz.OpLockWait, 1, 0, wait)
			}
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
	if w, ok := t.writes[string(key)]; ok {
		if w.delete {
			return nil, 0, false, nil
		}
		return w.value, 0, true, nil
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
	t.db.bumpReads(1)
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
		if _, buffered := t.writes[k]; buffered {
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

// Scan reads [begin, end) in order with shared locks on each returned
// row, merging in the transaction's buffered writes. fn returning false
// stops the scan.
func (t *Txn) Scan(ctx context.Context, begin, end []byte, fn func(ScanRow) bool) error {
	if t.done {
		return ErrTxnDone
	}
	// Collect the committed key set, then overlay buffered writes. The
	// set is read at one fixed timestamp: engines stream a range chunk
	// by chunk, and a read at truetime.Max would be a different instant
	// per chunk. A split or merge racing the collection invalidates a
	// tablet's contribution; restart the whole collection (values are
	// re-read under locks below: only the key set must be complete).
	ts := t.db.StrongReadTimestamp()
	var rows []ScanRow
	for {
		rows = rows[:0]
		ok := true
		for _, tab := range t.db.tabletsInRange(begin, end) {
			if err := tab.waitSafe(ctx, ts); err != nil {
				return err
			}
			tab.recordOp(1, keyviz.OpScan)
			_, valid, err := tab.scanAt(ctx, begin, end, ts, false, func(r ScanRow) bool {
				rows = append(rows, r)
				return true
			})
			if err != nil {
				return err
			}
			if !valid {
				ok = false
				break
			}
		}
		if ok {
			break
		}
	}
	t.db.bumpScans(1)
	rows = t.overlay(rows, begin, end)
	for _, r := range rows {
		if err := t.lock(ctx, r.Key, lockShared); err != nil {
			return err
		}
		// Re-read under the lock: the row may have changed between the
		// unlocked scan and lock acquisition.
		if w, ok := t.writes[string(r.Key)]; ok {
			if w.delete {
				continue
			}
			r.Value = w.value
		} else if v, _, ok, err := t.db.readOwned(ctx, r.Key, truetime.Max); err != nil {
			return err
		} else if ok {
			r.Value = v
		} else {
			continue // deleted concurrently before we locked it
		}
		if !fn(r) {
			return nil
		}
	}
	return nil
}

// overlay merges buffered writes within [begin, end) into rows, keeping
// ascending key order.
func (t *Txn) overlay(rows []ScanRow, begin, end []byte) []ScanRow {
	if len(t.writes) == 0 {
		return rows
	}
	byKey := make(map[string]int, len(rows))
	for i, r := range rows {
		byKey[string(r.Key)] = i
	}
	var added []ScanRow
	removed := map[int]bool{}
	for k, w := range t.writes {
		kb := []byte(k)
		if begin != nil && compareBytes(kb, begin) < 0 {
			continue
		}
		if end != nil && compareBytes(kb, end) >= 0 {
			continue
		}
		if i, ok := byKey[k]; ok {
			if w.delete {
				removed[i] = true
			} else {
				rows[i].Value = w.value
			}
			continue
		}
		if !w.delete {
			added = append(added, ScanRow{Key: kb, Value: w.value})
		}
	}
	out := rows[:0]
	for i, r := range rows {
		if !removed[i] {
			out = append(out, r)
		}
	}
	out = append(out, added...)
	sort.Slice(out, func(i, j int) bool { return compareBytes(out[i].Key, out[j].Key) < 0 })
	return out
}

// Put buffers an insert-or-update of key.
func (t *Txn) Put(key, value []byte) {
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	t.writes[string(k)] = bufferedWrite{key: k, value: v}
}

// Delete buffers a deletion of key.
func (t *Txn) Delete(key []byte) {
	k := append([]byte(nil), key...)
	t.writes[string(k)] = bufferedWrite{key: k, delete: true}
}

// Message buffers a transactional message, delivered to topic subscribers
// only if the transaction commits.
func (t *Txn) Message(topic string, payload []byte) {
	t.msgs = append(t.msgs, Message{Topic: topic, Payload: append([]byte(nil), payload...)})
}

// WriteCount returns the number of buffered mutations.
func (t *Txn) WriteCount() int { return len(t.writes) }

// Abort releases the transaction's locks without applying writes.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.finish()
	t.db.mu.Lock()
	t.db.stats.Aborts++
	t.db.mu.Unlock()
	t.db.count("spanner.aborts", "")
}

func (t *Txn) finish() {
	t.done = true
	keys := make([]string, 0, len(t.held))
	for k := range t.held {
		keys = append(keys, k)
	}
	t.db.locks.release(t, keys)
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
func (t *Txn) rollForwardAsync(participants []*tablet, from int, groups map[*tablet][]bufferedWrite, ts truetime.Timestamp) {
	t.done = true // the txn handle is spent; a later Abort is a no-op
	db := t.db
	db.mu.Lock()
	db.stats.RollForwards++
	db.mu.Unlock()
	db.count("spanner.roll_forwards", "")
	keys := make([]string, 0, len(t.held))
	for k := range t.held {
		keys = append(keys, k)
	}
	go func() {
		for _, tab := range participants[from:] {
			// The client's ctx may be cancelled, but the roll-forward
			// must outlive it (as a Paxos group's would), so retries run
			// on a background context. Prepared tablets are exempt from
			// split and merge, so the participant set stays valid.
			for !db.isClosed() {
				if err := tab.apply(context.Background(), groups[tab], ts); err == nil { //fslint:ignore ctxdiscipline commit-lifecycle root: roll-forward must outlive the request that committed
					break
				}
				db.clock.Sleep(time.Millisecond)
			}
		}
		for _, tab := range participants {
			tab.finish(t)
		}
		db.locks.release(t, keys)
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
		t.db.mu.Lock()
		t.db.stats.Commits++
		t.db.mu.Unlock()
		t.db.count("spanner.commits", dbID)
		return t.db.clock.Now().Latest, nil
	}

	// Deterministic lock order avoids self-inflicted deadlocks between
	// writers of the same key sets.
	ordered := make([]bufferedWrite, 0, len(t.writes))
	for _, w := range t.writes {
		ordered = append(ordered, w)
	}
	sort.Slice(ordered, func(i, j int) bool { return compareBytes(ordered[i].key, ordered[j].key) < 0 })
	for _, w := range ordered {
		if err := t.lock(ctx, w.key, lockExclusive); err != nil {
			t.Abort()
			return 0, fmt.Errorf("acquiring commit locks: %w", err)
		}
	}

	// Group writes by participant tablet and register prepare bounds
	// under db.mu so no split can migrate rows between grouping and
	// apply (maybeSplit holds db.mu exclusively and skips prepared
	// tablets).
	bound := t.db.clock.Now().Earliest
	groups := map[*tablet][]bufferedWrite{}
	t.db.mu.RLock()
	if len(t.db.tablets) == 0 {
		t.db.mu.RUnlock()
		t.Abort()
		return 0, ErrClosed
	}
	for _, w := range ordered {
		tab := t.db.tablets[t.db.tabletIndexLocked(w.key)]
		groups[tab] = append(groups[tab], w)
	}
	participants := make([]*tablet, 0, len(groups))
	for tab := range groups {
		tab.prepare(t, bound)
		participants = append(participants, tab)
	}
	t.db.mu.RUnlock()

	// Choose the commit timestamp: after every clock reading so far and
	// after each participant's last applied commit.
	ts := t.db.clock.Now().Latest
	if minTS > ts {
		ts = minTS
	}
	for _, tab := range participants {
		tab.mu.Lock()
		if tab.lastCommit >= ts {
			ts = tab.lastCommit + 1
		}
		tab.mu.Unlock()
	}
	if ts > maxTS {
		for _, tab := range participants {
			tab.finish(t)
		}
		t.Abort()
		return 0, fmt.Errorf("%w: need %d > max %d", ErrCommitWindow, ts, maxTS)
	}

	// Injected quorum fault: an error here models losing the replication
	// quorum after prepare — the commit aborts cleanly, no tablet applied
	// anything; injected latency models a quorum slowdown.
	if err := fault.Point(ctx, fault.SpannerCommitQuorum); err != nil {
		if t.db.kv.Armed() {
			for _, tab := range participants {
				t.db.kv.Sample(keyviz.SrcTablet, tab.id, keyviz.OpFault, 1, 0, 0)
			}
		}
		for _, tab := range participants {
			tab.finish(t)
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
		for _, w := range ordered {
			total += len(w.key) + len(w.value)
		}
		delay += t.db.commitBytesDelay(total)
	}
	if t.db.commitRowDelay != nil {
		delay += t.db.commitRowDelay(len(ordered))
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
	for i, tab := range participants {
		if err := tab.applyRollForward(ctx, groups[tab], ts); err != nil {
			if i == 0 && !errors.Is(err, storage.ErrCrashed) {
				// Every attempt on the first participant failed cleanly
				// (nothing reached any WAL), so no participant holds
				// durable state: aborting keeps the batch atomic.
				for _, p := range participants {
					p.finish(t)
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
			t.rollForwardAsync(participants, i, groups, ts)
			return 0, fmt.Errorf("%w: %v", ErrOutcomeUnknown, err)
		}
		tab.recordOp(int64(len(groups[tab])), keyviz.OpCommit)
	}
	// Injected tablet crash AFTER the applies are durable: the tablet
	// drops its volatile engine state and recovers from disk before the
	// commit is acknowledged — a strong read right after Commit returns
	// must still observe this transaction.
	if fault.Decide(ctx, fault.TabletCrashRestart).Kind == fault.KindCrash {
		for _, tab := range participants {
			tab.crashRestart()
		}
	}
	reqctx.Annotate(ctx, "participants", strconv.Itoa(len(participants)))
	cwStart := t.db.clock.Now().Latest
	t.db.clock.CommitWait(ts)
	if t.db.obs != nil {
		t.db.obs.Histogram("spanner.commit_wait", dbLabel(dbID)).Record(t.db.clock.Now().Latest.Sub(cwStart))
		t.db.obs.Counter("spanner.2pc_participants", dbLabel(dbID)).Add(int64(len(participants)))
	}
	// Per-participant commit bytes and end-to-end commit latency; ops
	// were already counted by recordOp at apply time, so n is zero.
	if t.db.kv.Armed() {
		lat := t.db.clock.Now().Latest.Sub(kvStart)
		for _, tab := range participants {
			var nbytes int64
			for _, w := range groups[tab] {
				nbytes += int64(len(w.key) + len(w.value))
			}
			t.db.kv.Sample(keyviz.SrcTablet, tab.id, keyviz.OpCommit, 0, nbytes, lat)
		}
	}
	for _, tab := range participants {
		tab.finish(t)
	}
	t.finish()

	t.db.mu.Lock()
	t.db.stats.Commits++
	t.db.mu.Unlock()
	t.db.count("spanner.commits", dbID)
	if len(participants) > 1 {
		t.db.count("spanner.2pc_commits", dbID)
	}
	t.db.deliver(ctx, t.msgs, ts)
	t.db.maybeSplit()
	return ts, nil
}
