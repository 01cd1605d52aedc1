package autoscaler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"dirigent/internal/core"
)

func cfg() core.ScalingConfig {
	c := core.DefaultScalingConfig()
	c.StableWindow = 60 * time.Second
	c.PanicWindow = 6 * time.Second
	c.ScaleToZeroGrace = 30 * time.Second
	return c
}

var t0 = time.Unix(10_000, 0)

func TestDesiredZeroWhenNeverInvoked(t *testing.T) {
	a := New(cfg())
	if got := a.Desired(t0, 0); got != 0 {
		t.Errorf("Desired with no activity = %d, want 0", got)
	}
}

func TestDesiredTracksConcurrency(t *testing.T) {
	a := New(cfg())
	// Steady 5 in-flight with target concurrency 1 → 5 sandboxes.
	for i := 0; i < 30; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 5)
	}
	now := t0.Add(30 * time.Second)
	if got := a.Desired(now, 5); got != 5 {
		t.Errorf("Desired = %d, want 5", got)
	}
}

func TestTargetConcurrencyDivides(t *testing.T) {
	c := cfg()
	c.TargetConcurrency = 10
	a := New(c)
	for i := 0; i < 30; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 25)
	}
	if got := a.Desired(t0.Add(30*time.Second), 3); got != 3 {
		t.Errorf("Desired = %d, want ceil(25/10)=3", got)
	}
}

func TestPanicModeOnBurst(t *testing.T) {
	a := New(cfg())
	// Quiet history, then a sudden burst of 40 in-flight.
	for i := 0; i < 54; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 0)
	}
	burstAt := t0.Add(55 * time.Second)
	a.Record(burstAt, 40)
	a.Record(burstAt.Add(time.Second), 40)
	now := burstAt.Add(2 * time.Second)
	got := a.Desired(now, 1)
	if !a.InPanic() {
		t.Errorf("burst did not trigger panic mode")
	}
	// The panic-window average (burst samples diluted by the quiet
	// samples still inside the 6 s window) dominates the stable average.
	if got < 10 {
		t.Errorf("Desired during burst = %d, want >= 10", got)
	}
}

func TestPanicModeHoldsHighWaterMark(t *testing.T) {
	a := New(cfg())
	burstAt := t0
	a.Record(burstAt, 40)
	a.Record(burstAt.Add(time.Second), 40)
	high := a.Desired(burstAt.Add(time.Second), 1)
	// Burst subsides, but within the stable window panic mode must not
	// scale down.
	a.Record(burstAt.Add(2*time.Second), 2)
	later := a.Desired(burstAt.Add(3*time.Second), high)
	if later < high {
		t.Errorf("panic mode scaled down from %d to %d", high, later)
	}
}

func TestScaleToZeroAfterGrace(t *testing.T) {
	c := cfg()
	c.StableWindow = 10 * time.Second
	c.ScaleToZeroGrace = 5 * time.Second
	a := New(c)
	a.Record(t0, 1)
	// Just after activity: keep one sandbox.
	a.Record(t0.Add(time.Second), 0)
	if got := a.Desired(t0.Add(2*time.Second), 1); got != 1 {
		t.Errorf("Desired right after activity = %d, want 1", got)
	}
	// After the grace period with the window drained: zero.
	for i := 3; i < 20; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 0)
	}
	if got := a.Desired(t0.Add(20*time.Second), 1); got != 0 {
		t.Errorf("Desired after grace = %d, want 0", got)
	}
}

func TestMinMaxScaleClamp(t *testing.T) {
	c := cfg()
	c.MinScale = 2
	c.MaxScale = 4
	a := New(c)
	if got := a.Desired(t0, 0); got != 2 {
		t.Errorf("MinScale not enforced: %d", got)
	}
	for i := 0; i < 10; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 100)
	}
	if got := a.Desired(t0.Add(10*time.Second), 4); got != 4 {
		t.Errorf("MaxScale not enforced: %d", got)
	}
}

func TestMaxScaleUpRateLimitsGrowth(t *testing.T) {
	c := cfg()
	c.MaxScaleUpRate = 2 // at most double per decision
	a := New(c)
	for i := 0; i < 10; i++ {
		a.Record(t0.Add(time.Duration(i)*100*time.Millisecond), 64)
	}
	if got := a.Desired(t0.Add(time.Second), 4); got > 8 {
		t.Errorf("Desired = %d, exceeds 2x rate limit from current 4", got)
	}
}

// TestQuickDesiredBounds property-tests the autoscaler's output range:
// never negative, never above MaxScale, never below MinScale.
func TestQuickDesiredBounds(t *testing.T) {
	f := func(loads []uint16, current uint8, minScale, maxScale uint8) bool {
		c := cfg()
		c.MinScale = int(minScale % 16)
		c.MaxScale = c.MinScale + int(maxScale%16) + 1
		a := New(c)
		for i, l := range loads {
			a.Record(t0.Add(time.Duration(i)*time.Second), float64(l%2048))
		}
		got := a.Desired(t0.Add(time.Duration(len(loads))*time.Second), int(current))
		return got >= c.MinScale && got <= c.MaxScale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWindowGC: an observation exactly one stable window old still
// counts, one bucket later nothing of the stream does, and a million
// observations leave the scaler the size it was.
func TestWindowGC(t *testing.T) {
	c := cfg()
	c.StableWindow = 5 * time.Second
	c.ScaleToZeroGrace = 0
	a := New(c)
	for i := 0; i < 1000; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 7)
	}
	last := t0.Add(999 * time.Second)
	if got := a.Desired(last.Add(c.StableWindow), 7); got != 7 {
		t.Errorf("Desired with the last observation exactly a window old = %d, want 7", got)
	}
	if got := a.Desired(last.Add(c.StableWindow+a.width), 7); got != 0 {
		t.Errorf("Desired after the stream aged out = %d, want 0", got)
	}

	if size := unsafe.Sizeof(*a); size > 1100 {
		t.Errorf("a scaler is %d bytes, want at most 1100", size)
	}
	at := last
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1_000_000; i++ {
			at = at.Add(time.Millisecond)
			a.Record(at, 1)
		}
		a.Desired(at, 1)
	})
	if allocs != 0 {
		t.Errorf("10^6 records and a decision allocated %.0f times, want 0", allocs)
	}
}

func TestDefaultsApplied(t *testing.T) {
	a := New(core.ScalingConfig{})
	got := a.Config()
	if got.TargetConcurrency != 1 || got.StableWindow != 60*time.Second ||
		got.PanicThreshold != 2.0 || got.MaxScaleUpRate != 1000 {
		t.Errorf("defaults not applied: %+v", got)
	}
}

// TestPanicEntryExactThreshold pins the panic-entry comparison at the
// exact boundary: desiredPanic >= PanicThreshold × current enters panic;
// one below does not.
func TestPanicEntryExactThreshold(t *testing.T) {
	// PanicThreshold 2.0, current 2 → threshold is exactly 4.
	enter := New(cfg())
	enter.Record(t0, 4) // panic-window average exactly 4
	enter.Desired(t0, 2)
	if !enter.InPanic() {
		t.Errorf("desiredPanic == threshold must enter panic mode")
	}

	stay := New(cfg())
	stay.Record(t0, 3) // desiredPanic 3 < threshold 4
	stay.Desired(t0, 2)
	if stay.InPanic() {
		t.Errorf("desiredPanic below threshold must not enter panic mode")
	}
}

// TestPanicExitExactStableWindow pins panic exit at the exact window
// boundary: one nanosecond before a full quiet StableWindow the scaler
// still panics; at exactly the window it exits.
func TestPanicExitExactStableWindow(t *testing.T) {
	c := cfg() // StableWindow 60s
	a := New(c)
	a.Record(t0, 40)
	if a.Desired(t0, 1); !a.InPanic() {
		t.Fatalf("burst did not enter panic mode")
	}
	// No further bursts: the panic window drains, so panicSince stays t0.
	a.Desired(t0.Add(c.StableWindow-time.Nanosecond), 1)
	if !a.InPanic() {
		t.Errorf("exited panic %v early", time.Nanosecond)
	}
	a.Desired(t0.Add(c.StableWindow), 1)
	if a.InPanic() {
		t.Errorf("still in panic after a full quiet stable window")
	}
}

// TestWindowGCClockSkew injects backwards clock skew into the sample
// stream: out-of-order samples must neither outlive the window (stale
// samples stuck forever) nor corrupt the desired-scale computation.
func TestWindowGCClockSkew(t *testing.T) {
	c := cfg()
	c.StableWindow = 60 * time.Second
	a := New(c)
	a.Record(t0.Add(100*time.Second), 5)
	// Clock skews 50 s backwards; the samples land out of order but
	// inside the window, and count: ceil((5+3+3)/3).
	a.Record(t0.Add(50*time.Second), 3)
	a.Record(t0.Add(55*time.Second), 3)
	if got := a.Desired(t0.Add(100*time.Second), 4); got != 4 {
		t.Errorf("Desired on skewed window = %d, want 4", got)
	}
	// Time recovers and moves past the window: every skewed sample has
	// aged out even though the stream was not time-ordered, and one that
	// arrives from before the window is dropped.
	a.Record(t0.Add(170*time.Second), 1)
	a.Record(t0.Add(50*time.Second), 9)
	a.Record(time.Time{}, 9) // saturates the offset; still only the far past
	if got := a.Desired(t0.Add(170*time.Second), 1); got != 1 {
		t.Errorf("Desired after the skewed stream aged out = %d, want 1", got)
	}
}

// TestScaleToZeroGraceExactBoundary pins the grace comparison: one
// nanosecond inside the grace period holds the last sandbox; at exactly
// the grace period the function scales to zero.
func TestScaleToZeroGraceExactBoundary(t *testing.T) {
	c := cfg()
	c.StableWindow = 5 * time.Second
	c.ScaleToZeroGrace = 30 * time.Second
	a := New(c)
	a.Record(t0, 1) // lastPositive = t0
	// Drain the stable window with zeros so desiredStable is 0.
	for i := 1; i <= 29; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 0)
	}
	if got := a.Desired(t0.Add(c.ScaleToZeroGrace-time.Nanosecond), 1); got != 1 {
		t.Errorf("Desired inside grace = %d, want 1", got)
	}
	if got := a.Desired(t0.Add(c.ScaleToZeroGrace), 1); got != 0 {
		t.Errorf("Desired at exact grace boundary = %d, want 0", got)
	}
}

// sliceAutoscaler is the implementation the ring replaced, kept as the
// reference: every observation of the stable window in a slice, walked
// twice per decision. It departs from what it was in two places, both
// marked below, so that it is a specification the ring can be held to on
// any stream: a window's far edge is floored to a multiple of floor after
// the first observation (zero: not floored), and the two scans filter
// where they used to stop at the first old sample, which made the answer
// depend on the order a skewed stream arrived in.
type sliceAutoscaler struct {
	cfg   core.ScalingConfig
	floor time.Duration
	epoch time.Time // first observation, the origin floor counts from

	samples []sliceSample

	panicMode    bool
	panicSince   time.Time
	maxPanicWant int

	lastPositive time.Time
	everActive   bool
}

type sliceSample struct {
	at    time.Time
	value float64
}

func (a *sliceAutoscaler) Record(at time.Time, inFlight float64) {
	if a.epoch.IsZero() {
		a.epoch = at
	}
	a.samples = append(a.samples, sliceSample{at: at, value: inFlight})
	if inFlight > 0 {
		a.lastPositive = at
		a.everActive = true
	}
	cutoff := a.cutoff(at, a.cfg.StableWindow)
	kept := a.samples[:0]
	for _, s := range a.samples {
		if !s.at.Before(cutoff) { // was: drop the prefix before cutoff
			kept = append(kept, s)
		}
	}
	a.samples = kept
}

func (a *sliceAutoscaler) cutoff(now time.Time, d time.Duration) time.Time {
	cutoff := now.Add(-d)
	if a.floor > 0 { // was: not floored
		off := cutoff.Sub(a.epoch)
		if rem := off % a.floor; rem < 0 {
			off -= rem + a.floor
		} else {
			off -= rem
		}
		cutoff = a.epoch.Add(off)
	}
	return cutoff
}

func (a *sliceAutoscaler) windowAverage(now time.Time, d time.Duration) float64 {
	cutoff := a.cutoff(now, d)
	var sum float64
	var n int
	for i := len(a.samples) - 1; i >= 0; i-- {
		if a.samples[i].at.Before(cutoff) {
			continue // was: break
		}
		sum += a.samples[i].value
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (a *sliceAutoscaler) Desired(now time.Time, current int) int {
	stableAvg := a.windowAverage(now, a.cfg.StableWindow)
	panicAvg := a.windowAverage(now, a.cfg.PanicWindow)

	desiredStable := int(math.Ceil(stableAvg / a.cfg.TargetConcurrency))
	desiredPanic := int(math.Ceil(panicAvg / a.cfg.TargetConcurrency))

	threshold := a.cfg.PanicThreshold * math.Max(float64(current), 1)
	if float64(desiredPanic) >= threshold {
		if !a.panicMode {
			a.panicMode = true
			a.maxPanicWant = 0
		}
		a.panicSince = now
	} else if a.panicMode && now.Sub(a.panicSince) >= a.cfg.StableWindow {
		a.panicMode = false
		a.maxPanicWant = 0
	}

	desired := desiredStable
	if a.panicMode {
		if desiredPanic > a.maxPanicWant {
			a.maxPanicWant = desiredPanic
		}
		if a.maxPanicWant > desired {
			desired = a.maxPanicWant
		}
	}

	ceilUp := int(math.Ceil(math.Max(float64(current), 1) * a.cfg.MaxScaleUpRate))
	if desired > ceilUp {
		desired = ceilUp
	}

	if desired == 0 && a.everActive && now.Sub(a.lastPositive) < a.cfg.ScaleToZeroGrace {
		desired = 1
	}

	if desired < a.cfg.MinScale {
		desired = a.cfg.MinScale
	}
	if a.cfg.MaxScale > 0 && desired > a.cfg.MaxScale {
		desired = a.cfg.MaxScale
	}
	return desired
}

// TestRingMatchesSliceReference drives the ring and the slice reference
// with the same seeded streams (steady load, bursts, silences longer than
// the window, samples skewed backwards by up to a window and a half) and
// requires the same decision and the same panic state after every
// observation. On arbitrary timestamps the reference floors its cutoffs
// to the ring's bucket boundaries; on timestamps that are multiples of the
// bucket width, with windows that are too, it is the unfloored original
// and the ring must agree with it exactly. Loads are whole numbers, so
// the two orders of summation give the same float.
func TestRingMatchesSliceReference(t *testing.T) {
	for _, tc := range []struct {
		name           string
		stable, panic  time.Duration
		aligned        bool
		steps, streams int
	}{
		{"200ms window", 200 * time.Millisecond, 50 * time.Millisecond, false, 4000, 20},
		{"60s window", 60 * time.Second, 6 * time.Second, false, 4000, 20},
		{"600ms window, bucket-aligned", 600 * time.Millisecond, 60 * time.Millisecond, true, 4000, 20},
		{"60s window, bucket-aligned", 60 * time.Second, 6 * time.Second, true, 4000, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(tc.streams); seed++ {
				c := cfg()
				c.StableWindow, c.PanicWindow = tc.stable, tc.panic
				c.ScaleToZeroGrace = tc.stable / 2
				ring := New(c)
				ref := &sliceAutoscaler{cfg: ring.Config()}
				if !tc.aligned {
					ref.floor = ring.width
				}
				rng := rand.New(rand.NewSource(seed))
				// step draws a duration up to max, in whole buckets on the
				// aligned runs.
				step := func(max time.Duration) time.Duration {
					d := time.Duration(rng.Int63n(int64(max)))
					if tc.aligned {
						d -= d % ring.width
					}
					return d
				}
				now, load, current := t0, 0, 0
				for i := 0; i < tc.steps; i++ {
					switch p := rng.Intn(100); {
					case p < 2: // a silence longer than the window
						now = now.Add(tc.stable + step(tc.stable))
					case p < 70:
						now = now.Add(step(3 * ring.width))
					}
					switch p := rng.Intn(100); {
					case p < 3:
						load = rng.Intn(400) // burst
					case p < 10:
						load = 0
					case p < 40:
						load = rng.Intn(8)
					}
					at := now
					if rng.Intn(10) == 0 {
						at = now.Add(-step(tc.stable * 3 / 2)) // backwards skew
					}
					ring.Record(at, float64(load))
					ref.Record(at, float64(load))
					got, want := ring.Desired(now, current), ref.Desired(now, current)
					if got != want || ring.InPanic() != ref.panicMode {
						t.Fatalf("seed %d step %d (now=+%v): ring Desired %d panic %v, reference %d panic %v",
							seed, i, now.Sub(t0), got, ring.InPanic(), want, ref.panicMode)
					}
					current = got
				}
			}
		})
	}
}

func BenchmarkRecord(b *testing.B) {
	a := New(cfg())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Record(t0.Add(time.Duration(i)*20*time.Millisecond), float64(i%4))
	}
}

var desiredSink int

func BenchmarkDesired(b *testing.B) {
	a := New(cfg())
	for i := 0; i < 3000; i++ {
		a.Record(t0.Add(time.Duration(i)*20*time.Millisecond), float64(i%4))
	}
	now := t0.Add(60 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		desiredSink += a.Desired(now, 2)
	}
}
