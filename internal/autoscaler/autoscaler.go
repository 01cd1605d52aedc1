// Package autoscaler implements per-function invocation-based autoscaling.
// Dirigent reuses Knative's default autoscaling policy for a fair
// comparison (paper §4): the desired sandbox count is proportional to the
// windowed average of in-flight requests, with a short "panic" window that
// reacts to bursts, a cap on the multiplicative scale-up rate, and
// scale-to-zero after a grace period.
package autoscaler

import (
	"math"
	"sync"
	"time"

	"dirigent/internal/core"
)

// ringBuckets is how many time buckets the stable window is cut into. The
// ring holds one more, so the bucket the window's far edge falls in is
// still whole when the near edge has moved into a new one.
const ringBuckets, ringSlots = 60, 61

// FunctionAutoscaler computes the desired sandbox count for one function
// from a stream of in-flight concurrency observations. Its size does not
// depend on the observation rate or the window length.
type FunctionAutoscaler struct {
	mu  sync.Mutex
	cfg core.ScalingConfig

	// The window is a ring of time buckets, each the sum and count of the
	// observations that fell in it (the shape Knative's autoscaler uses).
	// Bucket k covers [epoch+k·width, epoch+(k+1)·width) and lives in slot
	// k mod ringSlots; the ring holds buckets head-ringBuckets … head.
	// Times are offsets from the first observation, so they are monotonic
	// wherever the caller's clock is.
	epoch  time.Time // first observation; zero until there is one
	width  time.Duration
	head   int64
	sums   [ringSlots]float64
	counts [ringSlots]uint32

	panicMode    bool
	panicSince   time.Time
	maxPanicWant int

	lastPositive time.Time // last time concurrency was observed > 0
	everActive   bool
}

// New returns an autoscaler for one function.
func New(cfg core.ScalingConfig) *FunctionAutoscaler {
	if cfg.TargetConcurrency <= 0 {
		cfg.TargetConcurrency = 1
	}
	if cfg.StableWindow <= 0 {
		cfg.StableWindow = 60 * time.Second
	}
	if cfg.PanicWindow <= 0 {
		cfg.PanicWindow = cfg.StableWindow / 10
	}
	if cfg.PanicThreshold <= 0 {
		cfg.PanicThreshold = 2.0
	}
	if cfg.MaxScaleUpRate <= 1 {
		cfg.MaxScaleUpRate = 1000
	}
	return &FunctionAutoscaler{cfg: cfg, width: (cfg.StableWindow + ringBuckets - 1) / ringBuckets}
}

// Config returns the function's scaling configuration.
func (a *FunctionAutoscaler) Config() core.ScalingConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg
}

// Record adds one observation of total in-flight requests (executing plus
// queued) for the function. An observation older than every bucket the
// ring still holds is dropped.
func (a *FunctionAutoscaler) Record(at time.Time, inFlight float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if inFlight > 0 {
		a.lastPositive = at
		a.everActive = true
	}
	if a.epoch.IsZero() {
		a.epoch = at
	}
	k := a.bucket(at)
	if k < a.head-ringBuckets {
		return
	}
	if k > a.head {
		// Time moved on: empty the slots the new buckets reuse.
		for j := max(a.head+1, k-ringBuckets); j <= k; j++ {
			s := slot(j)
			a.sums[s], a.counts[s] = 0, 0
		}
		a.head = k
	}
	s := slot(k)
	a.sums[s] += inFlight
	a.counts[s]++
}

// bucket returns the number of the bucket t falls in (negative for a time
// before the first observation).
func (a *FunctionAutoscaler) bucket(t time.Time) int64 {
	off, w := int64(t.Sub(a.epoch)), int64(a.width)
	k := off / w
	if off%w < 0 {
		k-- // floor, not truncation
	}
	return k
}

func slot(k int64) int { return int((k%ringSlots + ringSlots) % ringSlots) }

// windowAverage computes the mean of the observations in the buckets from
// the one now-d falls in to the newest: the window's far edge is floored
// to a bucket boundary, so an observation exactly d old still counts.
func (a *FunctionAutoscaler) windowAverage(now time.Time, d time.Duration) float64 {
	if a.epoch.IsZero() {
		return 0
	}
	oldest := max(a.bucket(now.Add(-d)), a.head-ringBuckets)
	var sum float64
	var n uint64
	for k, s := a.head, slot(a.head); k >= oldest; k-- {
		sum += a.sums[s]
		n += uint64(a.counts[s])
		if s == 0 {
			s = ringSlots
		}
		s--
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Desired returns the number of sandboxes the function should have,
// given the current ready count.
func (a *FunctionAutoscaler) Desired(now time.Time, current int) int {
	a.mu.Lock()
	defer a.mu.Unlock()

	stableAvg := a.windowAverage(now, a.cfg.StableWindow)
	panicAvg := a.windowAverage(now, a.cfg.PanicWindow)

	desiredStable := int(math.Ceil(stableAvg / a.cfg.TargetConcurrency))
	desiredPanic := int(math.Ceil(panicAvg / a.cfg.TargetConcurrency))

	// Panic-mode entry: the short window demands at least PanicThreshold×
	// the current capacity.
	threshold := a.cfg.PanicThreshold * math.Max(float64(current), 1)
	if float64(desiredPanic) >= threshold {
		if !a.panicMode {
			a.panicMode = true
			a.maxPanicWant = 0
		}
		a.panicSince = now
	} else if a.panicMode && now.Sub(a.panicSince) >= a.cfg.StableWindow {
		// Exit panic only after a full stable window without bursts.
		a.panicMode = false
		a.maxPanicWant = 0
	}

	desired := desiredStable
	if a.panicMode {
		// In panic mode, never scale down: hold the high-water mark.
		if desiredPanic > a.maxPanicWant {
			a.maxPanicWant = desiredPanic
		}
		if a.maxPanicWant > desired {
			desired = a.maxPanicWant
		}
	}

	// Rate-limit multiplicative scale-up.
	ceilUp := int(math.Ceil(math.Max(float64(current), 1) * a.cfg.MaxScaleUpRate))
	if desired > ceilUp {
		desired = ceilUp
	}

	// Scale to zero only after the grace period with no activity.
	if desired == 0 {
		if !a.everActive {
			// Never invoked: stay at zero (modulo MinScale below).
		} else if now.Sub(a.lastPositive) < a.cfg.ScaleToZeroGrace {
			desired = 1
		}
	}

	if desired < a.cfg.MinScale {
		desired = a.cfg.MinScale
	}
	if a.cfg.MaxScale > 0 && desired > a.cfg.MaxScale {
		desired = a.cfg.MaxScale
	}
	return desired
}

// InPanic reports whether the autoscaler is currently in panic mode.
func (a *FunctionAutoscaler) InPanic() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.panicMode
}
