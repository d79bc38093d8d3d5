package keyviz

import "firestore/internal/truetime"

// Event sites: the constant names instrumentation points pass to
// Collector.Record. fslint's obsdiscipline analyzer requires the site
// argument at every call site to be a constant, exactly like metric
// names, so the event vocabulary stays greppable and bounded.
const (
	// EvSplit is a load- or size-triggered tablet split: Shard is the
	// hot source tablet (the triggering cell), Peer the new right
	// tablet, HeatBefore the load that crossed the threshold and
	// HeatAfter the per-child load after halving.
	EvSplit = "spanner.split"
	// EvMerge is a cold-tablet merge: Shard absorbs Peer.
	EvMerge = "spanner.merge"
	// EvRebalance is a Slicer-style rtcache range split: Shard is the
	// hot range, Peer the fresh range that took half its slots,
	// HeatBefore the subscription count that triggered it.
	EvRebalance = "rtcache.rebalance"
	// EvRangeCrash is an rtcache Changelog task crash (injected or
	// real): Shard is the victim range.
	EvRangeCrash = "rtcache.crash"
	// EvFlush is a durable-engine memtable flush; Shard is the tablet.
	EvFlush = "storage.flush"
	// EvCompaction is a durable-engine segment compaction; Shard is the
	// tablet.
	EvCompaction = "storage.compaction"
	// EvShed is a WFQ load-shed or in-flight-limit rejection; Key is
	// the shed tenant key.
	EvShed = "wfq.shed"
	// EvFault is any armed fault-plane injection; Detail is the fault
	// site name.
	EvFault = "fault.injected"
)

// Event is one point on the heatmap timeline, correlating control-plane
// decisions (splits, rebalances), background work (flushes,
// compactions), overload actions (sheds), and injected faults with the
// heat that surrounded them.
type Event struct {
	// TS is the event time on the region clock; Record stamps it when
	// zero.
	TS truetime.Timestamp `json:"ts"`
	// Site is the constant event-site name (EvSplit, ...).
	Site string `json:"site"`
	// Source is the keyspace dimension ("tablet", "range") the event
	// anchors to, or a plain origin tag ("wfq", "fault") when it has no
	// cell.
	Source string `json:"source,omitempty"`
	// Shard is the primary cell the event anchors to (tablet or range
	// ID).
	Shard uint64 `json:"shard,omitempty"`
	// Peer is the secondary shard (split target, merge victim).
	Peer uint64 `json:"peer,omitempty"`
	// Key carries a human-readable key or tenant (split key, shed db).
	Key string `json:"key,omitempty"`
	// HeatBefore/HeatAfter annotate the decision with the load signal
	// that drove it and the expected load after it.
	HeatBefore int64 `json:"heat_before,omitempty"`
	HeatAfter  int64 `json:"heat_after,omitempty"`
	// Detail is free-form context ("hot", "big", a fault site).
	Detail string `json:"detail,omitempty"`
}

// Record appends an event to the timeline. site must be one of the Ev*
// constants (enforced by fslint); ev.Site is overwritten with it.
// A nil collector drops events with the same single nil check as Sample.
func (c *Collector) Record(site string, ev Event) {
	if c == nil {
		return
	}
	ev.Site = site
	if ev.TS == 0 {
		ev.TS = c.clock.Now().Latest
	}
	c.mu.Lock()
	if len(c.events) >= eventCap {
		n := copy(c.events, c.events[1:])
		c.events = c.events[:n]
	}
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the timeline, oldest first.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}
