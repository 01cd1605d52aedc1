package autoscaler

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dirigent/internal/core"
)

// TestResumeMatchesScalerFedEveryTick holds the control plane's idle rule
// to the sweep it replaced. Two scalers see the same seeded demand, one
// sample per tick: busy stretches separated by idle gaps both shorter and
// longer than the stable window. The first is fed at every tick, as every
// function once was. The second is fed only while its function is active:
// it is dropped at the first tick Quiesce allows once the function has no
// sandbox and no demand, and rebuilt by Resume at the first tick with
// demand. Sandboxes follow the decisions at once. Both must decide the
// same at every tick, and the second must have gone idle in every long gap.
func TestResumeMatchesScalerFedEveryTick(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		stable, panic, grace  time.Duration
		tick                  time.Duration
		minGap, maxGap, ticks int
	}{
		{"200ms window, 50ms tick", 200 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 50 * time.Millisecond, 1, 12, 3000},
		{"500ms window, 20ms tick", 500 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 20 * time.Millisecond, 1, 80, 5000},
		{"60s window, 2s tick", 60 * time.Second, 6 * time.Second, 30 * time.Second, 2 * time.Second, 1, 90, 5000},
		{"60s window, 50ms tick", 60 * time.Second, 6 * time.Second, 30 * time.Second, 50 * time.Millisecond, 10, 3000, 40000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg()
			c.StableWindow, c.PanicWindow, c.ScaleToZeroGrace = tc.stable, tc.panic, tc.grace
			windowTicks := int(tc.stable / tc.tick)
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				fed := New(c)
				var (
					active      *FunctionAutoscaler
					quiet       = Quiet{At: t0}
					current     int
					wakes       int
					shortGaps   int
					longGaps    int
					idleInLong  int
					gap, busy   int
					lastBusyEnd = -1
				)
				now := t0
				for i := 0; i < tc.ticks; i++ {
					now = now.Add(tc.tick)
					// Alternate busy stretches of 1–20 ticks with gaps of
					// minGap–maxGap ticks.
					demand := 0
					switch {
					case busy > 0:
						busy--
						demand = 1 + rng.Intn(12)
					case gap > 0:
						gap--
					default:
						busy = rng.Intn(20)
						gap = tc.minGap + rng.Intn(tc.maxGap-tc.minGap+1)
						demand = 1 + rng.Intn(12)
						if lastBusyEnd >= 0 {
							if gap < windowTicks {
								shortGaps++
							} else {
								longGaps++
							}
						}
						lastBusyEnd = i + busy
					}

					fed.Record(now, float64(demand))
					want := fed.Desired(now, current)

					if active == nil && demand > 0 {
						active = New(c)
						active.Resume(quiet, tc.tick, now)
						wakes++
					}
					got := 0
					if active != nil {
						active.Record(now, float64(demand))
						got = active.Desired(now, current)
					}
					if got != want {
						t.Fatalf("seed %d tick %d (wake %d): resumed scaler wants %d, one fed every tick %d", seed, i, wakes, got, want)
					}
					current = want
					if active != nil && current == 0 && demand == 0 {
						if q, ok := active.Quiesce(now); ok {
							active, quiet = nil, q
							if i-lastBusyEnd >= windowTicks {
								idleInLong++
							}
						}
					}
				}
				if shortGaps == 0 || longGaps == 0 || wakes < 2 || idleInLong == 0 {
					t.Fatalf("seed %d: %d short and %d long gaps, %d wakes, %d idle spells in long gaps: the stream does not exercise both",
						seed, shortGaps, longGaps, wakes, idleInLong)
				}
			}
		})
	}
}

// TestResumeFromRegistration: a function registered and left alone is fed
// a 0 at every tick after its registration, and its first demand is
// averaged against those zeros.
func TestResumeFromRegistration(t *testing.T) {
	c := cfg()
	c.StableWindow, c.PanicWindow = 10*time.Second, time.Second
	const tick = time.Second
	for idle := 0; idle <= 15; idle++ {
		fed := New(c)
		now := t0
		for i := 0; i < idle; i++ {
			now = now.Add(tick)
			fed.Record(now, 0)
		}
		now = now.Add(tick)
		fed.Record(now, 22)
		resumed := New(c)
		resumed.Resume(Quiet{At: t0}, tick, now)
		resumed.Record(now, 22)
		if got, want := resumed.Desired(now, 1), fed.Desired(now, 1); got != want {
			t.Errorf("first demand %d ticks after registration: resumed wants %d, fed every tick %d", idle+1, got, want)
		}
	}
}

// TestResumeCostBoundedByBuckets: resuming a scaler idle for a day at a
// 1 ms tick touches at most every bucket once, not every tick.
func TestResumeCostBoundedByBuckets(t *testing.T) {
	c := cfg()
	q := Quiet{At: t0}
	now := t0.Add(24 * time.Hour)
	a := New(c)
	a.Resume(q, time.Millisecond, now)
	sum, n := a.window(now, c.StableWindow)
	if sum != 0 || n < uint64(c.StableWindow/time.Millisecond) {
		t.Fatalf("window after a day idle at 1 ms ticks: sum %v over %d samples, want 0 over at least %d", sum, n, c.StableWindow/time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Reset(c); a.Resume(q, time.Millisecond, now) }); allocs != 0 {
		t.Fatalf("Reset and Resume allocate %.0f times, want 0", allocs)
	}
}

// TestQuiesceRefusesWhileNotIdle: a scaler with demand in its window, in
// panic mode, or inside its scale-to-zero grace is not idle.
func TestQuiesceRefusesWhileNotIdle(t *testing.T) {
	c := cfg() // 60 s window, 6 s panic window, 30 s grace
	a := New(c)
	if _, ok := a.Quiesce(t0); !ok {
		t.Fatal("a scaler never observed is not idle")
	}
	a.Record(t0, 40)
	a.Desired(t0, 1) // enters panic
	for _, at := range []time.Duration{time.Second, c.StableWindow} {
		if _, ok := a.Quiesce(t0.Add(at)); ok {
			t.Errorf("idle %v after a burst", at)
		}
	}
	a.Desired(t0.Add(2*c.StableWindow), 0) // leaves panic
	if a.InPanic() {
		t.Fatal("still in panic")
	}
	q, ok := a.Quiesce(t0.Add(2 * c.StableWindow))
	if !ok {
		t.Fatal("not idle two quiet windows after the burst")
	}
	if q.Origin != t0 || q.At != t0.Add(2*c.StableWindow) || q.Zeros != 0 {
		t.Errorf("Quiet = %+v, want origin %v, at %v, no zeros", q, t0, t0.Add(2*c.StableWindow))
	}

	g := New(c)
	g.Record(t0, 1)
	for i := 1; i <= 40; i++ {
		g.Record(t0.Add(time.Duration(i)*2*time.Second), 0)
	}
	at := t0.Add(80 * time.Second) // window quiet since t0+20s, grace passed
	q, ok = g.Quiesce(at)
	if !ok || q.Zeros != 31 {
		t.Fatalf("Quiesce at %v = %+v, %v; want idle with the window's 31 zeros", at.Sub(t0), q, ok)
	}
	g.Record(at, 1)
	if _, ok := g.Quiesce(at.Add(c.ScaleToZeroGrace - time.Nanosecond)); ok {
		t.Error("idle inside the scale-to-zero grace")
	}
}

// TestSetConfigKeepsWindow: a new config takes effect at the next decision
// and keeps what the window holds, whether or not the window's length
// changes.
func TestSetConfigKeepsWindow(t *testing.T) {
	for _, stable := range []time.Duration{60 * time.Second, 30 * time.Second, 120 * time.Second} {
		t.Run(fmt.Sprint(stable), func(t *testing.T) {
			c := cfg()
			a := New(c)
			for i := 0; i < 20; i++ {
				a.Record(t0.Add(time.Duration(i)*time.Second), 6)
			}
			now := t0.Add(19 * time.Second)
			next := c
			next.StableWindow, next.PanicWindow = stable, stable/10
			next.MinScale, next.TargetConcurrency = 1, 2
			a.SetConfig(next)
			if got := a.Config(); got.StableWindow != stable || got.MinScale != 1 || got.TargetConcurrency != 2 {
				t.Fatalf("Config after SetConfig = %+v", got)
			}
			if got := a.Desired(now, 3); got != 3 {
				t.Errorf("steady 6 at target 2: Desired = %d, want 3", got)
			}
			if got := a.Desired(now.Add(stable+time.Hour), 3); got != 1 {
				t.Errorf("long after the window with MinScale 1: Desired = %d, want 1", got)
			}
		})
	}
}

// TestResetIsNew: a reset scaler decides like a new one.
func TestResetIsNew(t *testing.T) {
	a := New(cfg())
	a.Record(t0, 50)
	a.Desired(t0, 1)
	c := core.DefaultScalingConfig()
	c.MinScale = 2
	a.Reset(c)
	if a.InPanic() || a.Desired(t0, 0) != 2 || a.Config() != New(c).Config() {
		t.Fatalf("reset scaler: panic %v, Desired %d, config %+v", a.InPanic(), a.Desired(t0, 0), a.Config())
	}
}
