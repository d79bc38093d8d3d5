package rtcache

import (
	"context"
	"testing"
	"time"

	"firestore/internal/doc"
	"firestore/internal/truetime"
)

// TestPostExpiryAcceptNotAppliedOutOfOrder is the regression test for the
// late-Accept hazard: a prepare expires (TrueTime passes its maxTS
// without an Accept, the range resets), but the Spanner commit may have
// landed at any timestamp up to that maxTS, its Accept still in flight. A
// subscription registered after the reset with afterTS below that maxTS
// could then silently miss the write — its watermark advances past the
// commit timestamp without ever delivering the update. The range must instead refuse such
// registrations (trimmedBefore raised to the abandoned prepare's maxTS),
// forcing them through the reset-and-requery path, and the late Accept
// itself must not be applied.
func TestPostExpiryAcceptNotAppliedOutOfOrder(t *testing.T) {
	clock := truetime.NewSystem(10 * time.Microsecond)
	c := New(Config{
		Clock:          clock,
		Ranges:         4,
		HeartbeatEvery: time.Millisecond,
	})
	t.Cleanup(c.Close)

	d := ratingDoc("late", 5)
	maxTS := clock.Now().Latest.Add(20 * time.Millisecond)
	min, err := c.Prepare("w1", "db1", []doc.Name{d.Name}, maxTS)
	if err != nil {
		t.Fatal(err)
	}

	// Let the heartbeat loop expire the prepare once TrueTime passes maxTS.
	waitFor(t, "prepare expiry reset", func() bool {
		return c.Stats().OutOfSyncs >= 1
	})

	// A subscription below the abandoned prepare's maxTS cannot be served
	// a complete stream — the commit may have landed under it. It must be
	// reset immediately, not registered.
	afterTS := maxTS - 1
	rec := newRecorder()
	c.Subscribe(rec, "db1", ratingsQuery(), afterTS, 0)
	waitFor(t, "post-expiry subscription reset", func() bool {
		return rec.resetCount() >= 1
	})

	// The late Accept arrives inside [min, maxTS]. It must be discarded —
	// the range already gave up ordering for it — not forwarded to anyone.
	late := max(min+1, maxTS)
	c.Accept(context.Background(), "w1", OutcomeSuccess, late, []Mutation{{Name: d.Name, New: d}})
	time.Sleep(10 * time.Millisecond)
	if n := rec.updateCount(); n != 0 {
		t.Fatalf("late Accept delivered %d updates to a reset subscription", n)
	}

	// A subscription at or above maxTS is past the hazard and registers
	// normally.
	fresh := newRecorder()
	c.Subscribe(fresh, "db1", ratingsQuery(), maxTS, 0)
	time.Sleep(5 * time.Millisecond)
	if n := fresh.resetCount(); n != 0 {
		t.Fatalf("subscription at maxTS was reset %d times; want accepted", n)
	}
}
