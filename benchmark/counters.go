package main

// counters is a reading of what the program already exports through its
// public accessors; two readings bracket the measured window.
type counters struct {
	commits, aborts, lockTimeouts, snapWaits int64
	fsyncs, walBytes, flushes, compactions   int64
	segments                                 int64
	rpcs, rpcErrs, reconnects                int64
	forwarded, outOfSyncs                    int64
	dispatched, shed                         int64
}

func readCounters(e *env) counters {
	var c counters
	r := e.region
	for _, db := range r.Spanners {
		s := db.Stats()
		c.commits += s.Commits
		c.aborts += s.Aborts
		c.lockTimeouts += s.LockTimeout
		c.snapWaits += s.SnapWaits
		for _, ti := range db.TabletStats() {
			c.segments += int64(ti.Storage.Segments)
		}
	}
	// The disk engine's lifetime counters live in the region's registry;
	// asking for a counter by name returns the instance the engine feeds.
	c.fsyncs = r.Obs.Counter("storage.wal.fsyncs", nil).Value()
	c.walBytes = r.Obs.Counter("storage.wal.appended.bytes", nil).Value()
	c.flushes = r.Obs.Counter("storage.flushes", nil).Value()
	c.compactions = r.Obs.Counter("storage.compactions", nil).Value()
	if e.coord != nil {
		for _, ph := range e.coord.Pool().Health() {
			c.rpcs += ph.Calls
			c.rpcErrs += ph.Errors
			c.reconnects += ph.Reconnects
		}
	}
	cs := r.Cache.Stats()
	c.forwarded, c.outOfSyncs = cs.Forwarded, cs.OutOfSyncs
	for _, k := range r.Scheduler.Snapshot().Keys {
		c.dispatched += k.Dispatched
		c.shed += k.Shed
	}
	return c
}

// counterLayer normalises the window's counter deltas into per-layer
// metrics. Ratios whose denominator is zero on this workload report 0.
func counterLayer(out map[string]metric, a, b counters, w *window, bn bench, stored int64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	writes, reads, ops := float64(len(w.write)), float64(len(w.read)), float64(w.ok())
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	set("spanner.commits_per_write", "ratio", ratio(float64(b.commits-a.commits), writes))
	set("spanner.aborts_per_commit", "ratio", ratio(float64(b.aborts-a.aborts), float64(b.commits-a.commits)))
	set("spanner.lock_timeouts", "count", float64(b.lockTimeouts-a.lockTimeouts))
	set("spanner.snap_waits_per_read", "ratio", ratio(float64(b.snapWaits-a.snapWaits), reads))
	set("storage.fsyncs_per_write", "ratio", ratio(float64(b.fsyncs-a.fsyncs), writes))
	set("storage.wal_bytes_per_user_byte", "ratio", ratio(float64(b.walBytes-a.walBytes), writes*float64(bn.userBytes())))
	set("storage.flushes", "count", float64(b.flushes-a.flushes))
	set("storage.compactions", "count", float64(b.compactions-a.compactions))
	set("storage.segments_end", "count", float64(b.segments))
	set("storage.stored_bytes_per_user_byte", "ratio", ratio(float64(stored), float64(bn.liveUserBytes())))
	set("transport.rpcs_per_op", "ratio", ratio(float64(b.rpcs-a.rpcs), ops))
	set("transport.rpc_errs", "count", float64(b.rpcErrs-a.rpcErrs))
	set("transport.reconnects", "count", float64(b.reconnects-a.reconnects))
	set("rtcache.forwarded_per_write", "ratio", ratio(float64(b.forwarded-a.forwarded), writes))
	set("rtcache.out_of_syncs", "count", float64(b.outOfSyncs-a.outOfSyncs))
	set("wfq.dispatched_per_op", "ratio", ratio(float64(b.dispatched-a.dispatched), ops))
	set("wfq.shed", "count", float64(b.shed-a.shed))
}
