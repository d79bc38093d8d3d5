package cluster

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"firestore/internal/status"
	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// remoteEngine is the coordinator-side storage.Engine speaking to the
// tablet server that owns the rows. Every RPC failure — partition,
// process death, stale handle after a handoff — marks the engine
// Crashed(), which is exactly the contract the durable engine already
// has: the tablet layer discards it, re-opens through the factory
// (re-dialing the owner, or the new owner after a move), and rolls
// interrupted commits forward. Reads therefore drop the call's error: a
// failed read returns nothing and the caller's Crashed() re-check, which
// every engine already requires, discards it.
type remoteEngine struct {
	fac *RemoteFactory
	id  uint64
	// via is the owning peer, with this engine as the one a failed call
	// marks crashed; handle addresses the engine there.
	via    endpoint
	handle uint64

	crashed  atomic.Bool
	detached atomic.Bool // superseded by a handoff: skip the close RPC

	mu          sync.Mutex
	start, end  []byte
	lastDurable truetime.Timestamp
}

var _ storage.BatchGetter = (*remoteEngine)(nil)

func (e *remoteEngine) Get(key []byte, ts truetime.Timestamp) ([]byte, truetime.Timestamp, bool) {
	r, err := call(context.Background(), e.via, mGet, getReq{H: e.handle, Key: key, TS: ts})
	if err != nil || !r.OK {
		return nil, 0, false
	}
	return r.Value, r.TS, true
}

// GetBatch implements storage.BatchGetter: one round trip for a
// commit's whole read set against this tablet. On an RPC failure every
// result reads as missing and the engine is marked crashed; the tablet
// layer discards the batch and retries against the recovered engine.
func (e *remoteEngine) GetBatch(keys [][]byte, ts truetime.Timestamp) []storage.BatchGet {
	resp, err := call(context.Background(), e.via, mGetBatch, getBatchReq{H: e.handle, Keys: keys, TS: ts})
	if err == nil && len(resp.Results) == len(keys) {
		return resp.Results
	}
	if err == nil {
		e.crashed.Store(true) // a misaligned reply is no answer
	}
	return make([]storage.BatchGet, len(keys))
}

// Scan fetches the range one bounded chunk per RPC, each from the last
// key's successor, and stops asking when fn does: a limit-20 query is one
// small frame, an arbitrarily large range many bounded ones. A failed
// chunk marks the engine crashed (call does) and ends the scan; the
// tablet layer's Crashed() check discards what it was about to emit.
func (e *remoteEngine) Scan(lo, hi []byte, ts truetime.Timestamp, reverse bool, fn func(storage.Row) bool) bool {
	for n := storage.NextScanChunk(0); ; n = storage.NextScanChunk(n) {
		resp, err := call(context.Background(), e.via, mScan, scanReq{H: e.handle, Lo: lo, Hi: hi, TS: ts, Reverse: reverse, Limit: n})
		for _, r := range resp.Rows {
			if !fn(r) {
				return false
			}
		}
		if err != nil || !resp.More || len(resp.Rows) == 0 {
			return true
		}
		if last := resp.Rows[len(resp.Rows)-1].Key; reverse {
			hi = last
		} else {
			lo = storage.KeyAfter(last)
		}
	}
}

func (e *remoteEngine) Apply(ctx context.Context, writes []storage.Write, ts truetime.Timestamp) error {
	if _, err := call(ctx, e.via, mApply, applyReq{H: e.handle, Writes: writes, TS: ts}); err != nil {
		// Surface every remote apply failure as a crash: whether the peer
		// died mid-fsync or the response was lost, the coordinator cannot
		// know if the batch landed, so the commit must take the
		// recover-and-roll-forward path (re-applying at the same timestamp
		// is idempotent).
		return fmt.Errorf("%w: %v", storage.ErrCrashed, err)
	}
	e.mu.Lock()
	// Mem-backed peers report Max (never recover to less than they
	// serve); durable peers advance with each applied commit.
	if e.lastDurable != truetime.Max && ts > e.lastDurable {
		e.lastDurable = ts
	}
	e.mu.Unlock()
	return nil
}

func (e *remoteEngine) KeyAt(i int) ([]byte, bool) {
	resp, _ := call(context.Background(), e.via, mKeyAt, keyAtReq{H: e.handle, I: i})
	return resp.Key, resp.OK
}

// AscendChains fetches the range the way Scan does: one bounded chunk per
// RPC, each from the last key's successor. A failed chunk marks the
// engine crashed and ends the iteration.
func (e *remoteEngine) AscendChains(lo, hi []byte, fn func(storage.Chain) bool) {
	for n := storage.NextScanChunk(0); ; n = storage.NextScanChunk(n) {
		resp, err := call(context.Background(), e.via, mChains, scanReq{H: e.handle, Lo: lo, Hi: hi, Limit: n})
		for _, c := range resp.Chains {
			if !fn(c) {
				return
			}
		}
		if err != nil || !resp.More || len(resp.Chains) == 0 {
			return
		}
		lo = storage.KeyAfter(resp.Chains[len(resp.Chains)-1].Key)
	}
}

func (e *remoteEngine) IngestChains(chains []storage.Chain) error {
	_, err := call(context.Background(), e.via, mIngest, ingestReq{H: e.handle, Chains: chains})
	return err
}

func (e *remoteEngine) SetBounds(start, end []byte) error {
	if _, err := call(context.Background(), e.via, mSetBounds, setBoundsReq{H: e.handle, Start: start, End: end}); err != nil {
		return err
	}
	e.mu.Lock()
	e.start, e.end = start, end
	e.mu.Unlock()
	return nil
}

func (e *remoteEngine) Commission() error {
	_, err := call(context.Background(), e.via, mCommission, handleReq{e.handle})
	return err
}

func (e *remoteEngine) LastDurable() truetime.Timestamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastDurable
}

func (e *remoteEngine) Crashed() bool { return e.crashed.Load() }

func (e *remoteEngine) Stats() storage.Stats {
	resp, err := call(context.Background(), e.via, mStats, handleReq{e.handle})
	if err != nil {
		return storage.Stats{Kind: "remote"}
	}
	resp.Stats.Kind = "remote-" + resp.Stats.Kind
	return resp.Stats
}

func (e *remoteEngine) Close() error {
	e.fac.coord.dropLive(dbTablet{e.fac.db, e.id}, e)
	if e.detached.Load() {
		// A handoff already closed (or destroyed) the remote side; the
		// handle is gone.
		return nil
	}
	// Best-effort: a dead peer's handle dies with the process anyway.
	call(context.Background(), e.fac.coord.peer(e.via.peer), mCloseEng, handleReq{e.handle}) //nolint:errcheck
	return nil
}

// bounds snapshots the engine's current key range.
func (e *remoteEngine) bounds() (start, end []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.start, e.end
}

// poison marks the engine crashed and detached so the next touch takes
// the recovery path, which re-opens via the factory on whichever peer
// now owns the tablet. MoveTablet calls it after the handoff commits.
func (e *remoteEngine) poison() {
	e.detached.Store(true)
	e.crashed.Store(true)
}

// RemoteFactory is the coordinator-side storage.Factory for one pool
// database: Open dials whichever tablet server owns (or is assigned) the
// tablet, List merges every peer's durable catalog, Destroy reclaims the
// owner's state. It is handed to internal/core exactly where a
// DiskFactory would be, so the tablet, transaction, and recovery layers
// run unmodified over the wire.
type RemoteFactory struct {
	coord *Coordinator
	db    int
}

// Open opens tablet id on its owning peer, blocking while a handoff of
// that tablet is in flight (the recovery path lands here when a moved
// tablet's engine is poisoned; it must observe the post-move owner).
func (f *RemoteFactory) Open(id uint64, start, end []byte) (storage.Engine, error) {
	dt := dbTablet{f.db, id}
	peer, err := f.coord.pickPeer(dt)
	if err != nil {
		return nil, err
	}
	owner := f.coord.peer(peer)
	resp, err := call(context.Background(), owner, mOpen, openReq{dbTablet: dt, Start: start, End: end})
	if err != nil {
		return nil, err
	}
	e := &remoteEngine{
		fac: f, id: id, via: owner, handle: resp.Handle,
		start: start, end: end, lastDurable: resp.LastDurable,
	}
	e.via.eng = e
	f.coord.setLive(dt, e)
	return e, nil
}

// List merges the durable tablet catalogs of every joined peer, sorted
// by start key. A tablet listed by several peers (a crashed handoff that
// never destroyed the source) resolves to the assigned owner's copy.
func (f *RemoteFactory) List() ([]storage.TabletMeta, error) {
	type candidate struct {
		meta storage.TabletMeta
		peer string
	}
	byID := map[uint64]candidate{}
	peers := f.coord.peerNames()
	if len(peers) == 0 {
		return nil, status.New(status.Unavailable, "cluster", "no tablet servers joined")
	}
	for _, peer := range peers {
		resp, err := call(context.Background(), f.coord.peer(peer), mList, listReq{DB: f.db})
		if err != nil {
			return nil, err
		}
		for _, m := range resp.Tablets {
			owner, owned := f.coord.ownerOf(dbTablet{f.db, m.ID})
			// The assigned owner's copy wins; otherwise the first seen stays.
			if _, seen := byID[m.ID]; !seen || (owned && peer == owner) {
				byID[m.ID] = candidate{m, peer}
			}
		}
	}
	metas := make([]storage.TabletMeta, 0, len(byID))
	for _, c := range byID {
		// Recovery discovered this tablet on a peer: make the assignment
		// sticky so Open dials the same peer that has the WAL.
		f.coord.adopt(dbTablet{f.db, c.meta.ID}, c.peer)
		metas = append(metas, c.meta)
	}
	// By start key, nil (unbounded) first.
	slices.SortFunc(metas, func(a, b storage.TabletMeta) int { return bytes.Compare(a.Start, b.Start) })
	return metas, nil
}

// Destroy removes tablet id's state on its owner (after a merge).
func (f *RemoteFactory) Destroy(id uint64) error {
	dt := dbTablet{f.db, id}
	peer, ok := f.coord.ownerOf(dt)
	if !ok {
		return nil
	}
	_, err := call(context.Background(), f.coord.peer(peer), mDestroy, dt)
	if err == nil {
		f.coord.unassign(dt)
	}
	return err
}
