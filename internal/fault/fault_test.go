package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"firestore/internal/obs"
	"firestore/internal/status"
	"firestore/internal/truetime"
)

func TestDisarmedIsInert(t *testing.T) {
	r := NewRegistry()
	ctx := context.Background()
	if err := r.Point(ctx, SpannerRead); err != nil {
		t.Fatalf("disarmed Point returned %v", err)
	}
	if d := r.Decide(ctx, BackendAccept); d.Kind != KindProceed {
		t.Fatalf("disarmed Decide returned kind %v", d.Kind)
	}
	if e := r.InflateEpsilon(); e != 0 {
		t.Fatalf("disarmed InflateEpsilon = %v", e)
	}
}

func TestErrorModeCarriesCode(t *testing.T) {
	r := NewRegistry()
	if err := r.Enable(Spec{Site: SpannerRead, Mode: ModeError, Code: status.DeadlineExceeded}); err != nil {
		t.Fatal(err)
	}
	err := r.Point(context.Background(), SpannerRead)
	if err == nil {
		t.Fatal("armed error site returned nil")
	}
	var se *status.Error
	if !errors.As(err, &se) || se.Code != status.DeadlineExceeded {
		t.Fatalf("injected error = %v, want DEADLINE_EXCEEDED status", err)
	}
	// Other sites stay untouched.
	if err := r.Point(context.Background(), SpannerLockWait); err != nil {
		t.Fatalf("unarmed sibling site fired: %v", err)
	}
}

func TestErrorModeDefaultsToUnavailable(t *testing.T) {
	r := NewRegistry()
	if err := r.Enable(Spec{Site: BackendPrepare, Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	err := r.Point(context.Background(), BackendPrepare)
	var se *status.Error
	if !errors.As(err, &se) || se.Code != status.Unavailable {
		t.Fatalf("default code = %v, want UNAVAILABLE", err)
	}
}

func TestDecideKinds(t *testing.T) {
	cases := []struct {
		mode Mode
		want Kind
	}{
		{ModeDrop, KindDrop},
		{ModeDuplicate, KindDuplicate},
		{ModeCrash, KindCrash},
	}
	for _, tc := range cases {
		r := NewRegistry()
		if err := r.Enable(Spec{Site: TriggersDeliver, Mode: tc.mode}); err != nil {
			t.Fatal(err)
		}
		if d := r.Decide(context.Background(), TriggersDeliver); d.Kind != tc.want {
			t.Fatalf("mode %s: kind = %v, want %v", tc.mode, d.Kind, tc.want)
		}
	}
}

func TestLatencyDrawsFromInjectedClock(t *testing.T) {
	r := NewRegistry()
	mc := truetime.NewManual(1000, 0)
	r.SetClock(mc)
	if err := r.Enable(Spec{Site: SpannerCommitQuorum, Mode: ModeLatency, Latency: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Point(context.Background(), SpannerCommitQuorum); err != nil {
		t.Fatal(err)
	}
	// Manual clock's Sleep returns immediately: the injected latency must
	// not have burned wall time.
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("latency injection slept on wall clock (%v)", wall)
	}
}

func TestMaxCountBoundsInjections(t *testing.T) {
	r := NewRegistry()
	if err := r.Enable(Spec{Site: FrontendConnDeliver, Mode: ModeDrop, MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for i := 0; i < 50; i++ {
		if r.Decide(context.Background(), FrontendConnDeliver).Kind == KindDrop {
			dropped++
		}
	}
	if dropped != 3 {
		t.Fatalf("dropped %d deliveries, want exactly MaxCount=3", dropped)
	}
	if got := r.Injected(FrontendConnDeliver); got != 3 {
		t.Fatalf("Injected = %d, want 3", got)
	}
}

func TestFiresIsDeterministicAndSeedSensitive(t *testing.T) {
	for hit := int64(0); hit < 200; hit++ {
		a := Fires(42, SpannerRead, hit, 0.3)
		b := Fires(42, SpannerRead, hit, 0.3)
		if a != b {
			t.Fatalf("Fires not pure at hit %d", hit)
		}
	}
	spec := Spec{Site: SpannerRead, Mode: ModeError, Prob: 0.3}
	s1 := Schedule(42, spec, 400)
	s2 := Schedule(42, spec, 400)
	if s1 != s2 {
		t.Fatal("Schedule differs across calls for the same seed")
	}
	if s1 == Schedule(43, spec, 400) {
		t.Fatal("Schedule identical across different seeds")
	}
	// The realized firing sequence through a registry matches the pure
	// schedule.
	r := NewRegistry()
	r.SetSeed(42)
	if err := r.Enable(spec); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 400)
	for i := range got {
		got[i] = '0'
		if r.Point(context.Background(), SpannerRead) != nil {
			got[i] = '1'
		}
	}
	if string(got) != s1 {
		t.Fatalf("registry schedule %s != pure schedule %s", got[:40], s1[:40])
	}
}

func TestProbabilityRoughlyHonored(t *testing.T) {
	n, fired := 10000, 0
	for hit := 0; hit < n; hit++ {
		if Fires(7, BackendAccept, int64(hit), 0.25) {
			fired++
		}
	}
	frac := float64(fired) / float64(n)
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("prob 0.25 fired fraction = %v", frac)
	}
}

func TestEnableValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Enable(Spec{Mode: ModeError}); err == nil {
		t.Fatal("missing site accepted")
	}
	if err := r.Enable(Spec{Site: "x", Mode: "explode"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := r.Enable(Spec{Site: "x", Mode: ModeDrop, Prob: 1.5}); err == nil {
		t.Fatal("prob > 1 accepted")
	}
}

func TestDisableAndReset(t *testing.T) {
	r := NewRegistry()
	if err := r.Enable(Spec{Site: SpannerRead, Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	r.Disable(SpannerRead)
	if err := r.Point(context.Background(), SpannerRead); err != nil {
		t.Fatalf("disabled site fired: %v", err)
	}
	if r.armed.Load() != 0 {
		t.Fatalf("armed = %d after disable", r.armed.Load())
	}
	if err := r.Enable(Spec{Site: SpannerRead, Mode: ModeError}); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if r.armed.Load() != 0 {
		t.Fatalf("armed = %d after reset", r.armed.Load())
	}
	if err := r.Point(context.Background(), SpannerRead); err != nil {
		t.Fatalf("site fired after reset: %v", err)
	}
}

func TestObsCounterFamily(t *testing.T) {
	r := NewRegistry()
	reg := obs.NewRegistry()
	r.SetObs(reg)
	if err := r.Enable(Spec{Site: RTCacheAccept, Mode: ModeDrop}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r.Decide(context.Background(), RTCacheAccept)
	}
	c := reg.Counter("fault.injected_total", obs.Labels{"site": RTCacheAccept})
	if got := c.Value(); got != 4 {
		t.Fatalf("fault.injected_total{site=%s} = %d, want 4", RTCacheAccept, got)
	}
}

func TestListMergesInventoryAndState(t *testing.T) {
	r := NewRegistry()
	if err := r.Enable(Spec{Site: TrueTimeEpsilon, Mode: ModeInflate, Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	r.InflateEpsilon()
	list := r.List()
	if len(list) < len(Sites) {
		t.Fatalf("List returned %d entries, want >= %d", len(list), len(Sites))
	}
	var found bool
	for _, st := range list {
		if st.Site == TrueTimeEpsilon {
			found = true
			if !st.Enabled || st.Mode != ModeInflate || st.Injected != 1 {
				t.Fatalf("TrueTimeEpsilon status = %+v", st)
			}
		} else if st.Enabled {
			t.Fatalf("unexpected enabled site %q", st.Site)
		}
	}
	if !found {
		t.Fatal("TrueTimeEpsilon missing from List")
	}
}

func TestWrapClockInflation(t *testing.T) {
	r := NewRegistry()
	inner := truetime.NewManual(1_000_000, 100)
	c := r.WrapClock(inner)
	iv := c.Now()
	if iv != inner.Now() {
		t.Fatalf("disarmed wrapped clock altered interval: %v vs %v", iv, inner.Now())
	}
	if err := r.Enable(Spec{Site: TrueTimeEpsilon, Mode: ModeInflate, Latency: 500 * time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	in := inner.Now()
	got := c.Now()
	if got.Earliest != in.Earliest-500 || got.Latest != in.Latest+500 {
		t.Fatalf("inflated interval = %+v, inner %+v", got, in)
	}
	if c.After(got.Latest) {
		t.Fatal("After true inside widened uncertainty")
	}
}

func TestCodeByName(t *testing.T) {
	c, err := CodeByName("UNAVAILABLE")
	if err != nil || c != status.Unavailable {
		t.Fatalf("CodeByName(UNAVAILABLE) = %v, %v", c, err)
	}
	if _, err := CodeByName("NOPE"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func BenchmarkDisarmedPoint(b *testing.B) {
	r := NewRegistry()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Point(ctx, SpannerCommitQuorum); err != nil {
			b.Fatal(err)
		}
	}
}
