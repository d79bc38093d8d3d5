package chaos

import (
	"time"

	"firestore/internal/fault"
	"firestore/internal/status"
)

// scenarios is the named catalog, in rough order of the layer the fault
// targets (storage up to frontend). Workload notes:
//
//   - tablet-blackout runs without listeners: a real-time requery that
//     fails terminally removes the target (the production behavior),
//     so listener convergence is not a meaningful invariant while reads
//     themselves are failing.
//   - drop faults on retried paths (frontend delivery, heartbeats) are
//     always MaxCount-bounded so the system can make progress once the
//     budget is spent.
var scenarios = []Scenario{
	{
		Name: "tablet-blackout",
		Doc:  "Spanner tablet reads fail UNAVAILABLE intermittently; writes and triggers ride through, reads surface canonical errors.",
		Faults: []fault.Spec{
			{Site: fault.SpannerRead, Mode: fault.ModeError, Code: status.Unavailable, Prob: 0.15, MaxCount: 12},
		},
		Listeners: 0,
	},
	{
		Name: "quorum-storm",
		Doc:  "Commit quorum latency spikes 1ms on half of commits; throughput dips but every invariant holds.",
		Faults: []fault.Spec{
			{Site: fault.SpannerCommitQuorum, Mode: fault.ModeLatency, Latency: time.Millisecond, Prob: 0.5},
		},
		Listeners: 2,
	},
	{
		Name: "quorum-loss",
		Doc:  "Commit quorum fails UNAVAILABLE for a bounded burst; failed commits abort cleanly and never reach triggers or streams.",
		Faults: []fault.Spec{
			{Site: fault.SpannerCommitQuorum, Mode: fault.ModeError, Code: status.Unavailable, Prob: 0.2, MaxCount: 8},
		},
		Listeners: 2,
	},
	{
		Name: "lock-contention",
		Doc:  "Lock waits abort with ABORTED under contention; writers lose some commits but state stays consistent.",
		Faults: []fault.Spec{
			{Site: fault.SpannerLockWait, Mode: fault.ModeError, Code: status.Aborted, Prob: 0.25, MaxCount: 10},
		},
		Listeners: 2,
	},
	{
		Name: "epsilon-inflation",
		Doc:  "TrueTime uncertainty inflates by 500us; commit wait stretches, external consistency must survive the wider interval.",
		Faults: []fault.Spec{
			{Site: fault.TrueTimeEpsilon, Mode: fault.ModeInflate, Latency: 500 * time.Microsecond},
		},
		Listeners: 2,
	},
	{
		Name: "accept-blackhole",
		Doc:  "Backend loses the RTC Accept after Spanner commit (mid-protocol failure); prepares expire, ranges go out-of-sync, streams heal by requery.",
		Faults: []fault.Spec{
			{Site: fault.BackendAccept, Mode: fault.ModeDrop, Prob: 0.4, MaxCount: 6},
		},
		Listeners:       2,
		ExpectOutOfSync: true,
		ExpectRequery:   true,
	},
	{
		Name: "changelog-crash",
		Doc:  "Changelog ranges crash and restart with empty state; subscriptions are reset and re-register via requery. The keyviz timeline must attribute the crash to the range carrying the heat.",
		Faults: []fault.Spec{
			{Site: fault.RTCacheChangelogCrash, Mode: fault.ModeCrash, Prob: 1, MaxCount: 4},
		},
		Listeners:                 2,
		ExpectOutOfSync:           true,
		ExpectRequery:             true,
		ExpectKeyVizCrashFidelity: true,
	},
	{
		Name: "queue-redelivery",
		Doc:  "The hand-off of commits to write triggers redelivers most of them; trigger delivery stays at-least-once with no lost changes.",
		Faults: []fault.Spec{
			{Site: fault.TriggersDeliver, Mode: fault.ModeDuplicate, Prob: 0.6},
		},
		Listeners: 1,
	},
	{
		Name: "conn-flap",
		Doc:  "A frontend connection drops snapshot deliveries; the conn falls back to full requery and converges.",
		Faults: []fault.Spec{
			{Site: fault.FrontendConnDeliver, Mode: fault.ModeDrop, Prob: 0.3, MaxCount: 8},
		},
		Listeners:     2,
		ExpectRequery: true,
	},
	{
		Name: "heartbeat-stall",
		Doc:  "Heartbeats stall while an Accept is lost; the expired prepare trips out-of-sync exactly as §IV-D4 describes.",
		Faults: []fault.Spec{
			{Site: fault.RTCacheHeartbeat, Mode: fault.ModeDrop, Prob: 1, MaxCount: 25},
			{Site: fault.RTCacheAccept, Mode: fault.ModeDrop, Prob: 1, MaxCount: 1},
		},
		Listeners:       2,
		ExpectOutOfSync: true,
		ExpectRequery:   true,
	},
	{
		Name: "prepare-flake",
		Doc:  "The RTC Prepare step fails UNAVAILABLE; commits abort cleanly before any Spanner state lands.",
		Faults: []fault.Spec{
			{Site: fault.BackendPrepare, Mode: fault.ModeError, Code: status.Unavailable, Prob: 0.3, MaxCount: 5},
		},
		Listeners: 2,
	},
	// Durable scenarios run the region on the disk engine (Options.Dir
	// required). Their tiny memtable cap forces the workload through
	// segment flush + compaction, and each ends with a full region
	// close + reopen asserting restart durability.
	{
		Name: "tablet-crash-commit",
		Doc:  "Tablets crash immediately after commit apply and recover by WAL replay; acknowledged commits survive, strong reads stay externally consistent, and the full state survives a region restart.",
		Faults: []fault.Spec{
			{Site: fault.TabletCrashRestart, Mode: fault.ModeCrash, Prob: 0.3, MaxCount: 6},
		},
		Listeners:         1,
		Durable:           true,
		ExpectRecoveries:  true,
		ExpectFlushes:     true,
		ExpectCompactions: true,
	},
	{
		Name: "wal-fsync-flake",
		Doc:  "WAL group fsync fails intermittently; the engine fails fast (crash-consistent), commits roll forward through recovery, and nothing acknowledged is lost.",
		Faults: []fault.Spec{
			{Site: fault.WALFsync, Mode: fault.ModeError, Code: status.Unavailable, Prob: 0.15, MaxCount: 6},
		},
		Listeners:        1,
		Durable:          true,
		ExpectRecoveries: true,
		ExpectFlushes:    true,
	},
	{
		Name: "segment-flush-flake",
		Doc:  "Segment flushes fail transiently; the memtable keeps absorbing writes and flushing retries later, so durability and compaction still happen.",
		Faults: []fault.Spec{
			{Site: fault.SegmentFlush, Mode: fault.ModeError, Code: status.Unavailable, Prob: 0.5, MaxCount: 10},
		},
		Listeners:         1,
		Durable:           true,
		ExpectFlushes:     true,
		ExpectCompactions: true,
	},
	// Cluster scenarios run the region's storage on tablet-server child
	// processes behind a coordinator, so the transport.* fault sites sit
	// on every engine op and process kills are real SIGKILLs. They need
	// Options.Dir and a test binary whose TestMain calls
	// cluster.MaybeRunTabletChild() first.
	{
		Name: "net-partition",
		Doc:  "The wire to the tablet-server processes partitions intermittently while the link slows; remote engines crash-classify, lazy recovery re-opens them once reachable, and every invariant holds after the partition heals.",
		Faults: []fault.Spec{
			{Site: fault.TransportPartition, Mode: fault.ModeError, Code: status.Unavailable, Prob: 0.2, MaxCount: 16},
			{Site: fault.TransportSlowLink, Mode: fault.ModeLatency, Latency: 200 * time.Microsecond, Prob: 0.5},
		},
		Listeners:        1,
		Cluster:          true,
		ExpectRecoveries: true,
	},
	{
		Name: "link-flap",
		Doc:  "Peer connections reset mid-conversation and responses vanish (half-open RPCs); the pool re-dials, ambiguous applies roll forward idempotently on retry, and state stays consistent.",
		Faults: []fault.Spec{
			{Site: fault.TransportConnReset, Mode: fault.ModeCrash, Prob: 0.15, MaxCount: 8},
			{Site: fault.TransportHalfOpen, Mode: fault.ModeDrop, Prob: 0.1, MaxCount: 4},
		},
		Listeners:        1,
		Cluster:          true,
		ExpectRecoveries: true,
	},
	{
		Name:             "tablet-proc-kill",
		Doc:              "A tablet-server process is SIGKILLed mid-commit and respawned under the same name and data dir; WAL replay rolls acknowledged commits forward, the peer rejoins and reclaims its tablets, and the full state survives a region restart.",
		Listeners:        1,
		Cluster:          true,
		KillPeer:         true,
		Durable:          true,
		ExpectRecoveries: true,
		ExpectFlushes:    true,
	},
}

// Find returns the named scenario, or false.
func Find(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
