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
	a := &FunctionAutoscaler{}
	a.Reset(cfg)
	return a
}

// Reset makes a the scaler New(cfg) returns, in its own memory, so that a
// scaler whose function has gone idle can serve the next one to wake.
func (a *FunctionAutoscaler) Reset(cfg core.ScalingConfig) {
	cfg = withDefaults(cfg)
	*a = FunctionAutoscaler{cfg: cfg, width: bucketWidth(cfg)}
}

func withDefaults(cfg core.ScalingConfig) core.ScalingConfig {
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
	return cfg
}

func bucketWidth(cfg core.ScalingConfig) time.Duration {
	return (cfg.StableWindow + ringBuckets - 1) / ringBuckets
}

// Config returns the function's scaling configuration.
func (a *FunctionAutoscaler) Config() core.ScalingConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg
}

// SetConfig makes cfg the function's scaling configuration from the next
// decision on, keeping what the window holds: a re-registration changes
// how the function scales, not what it has been asked to do. A new stable
// window re-cuts the ring, each old bucket landing whole in the new bucket
// its start falls in.
func (a *FunctionAutoscaler) SetConfig(cfg core.ScalingConfig) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg = withDefaults(cfg)
	width := bucketWidth(a.cfg)
	if width == a.width {
		return
	}
	oldWidth, head, sums, counts := a.width, a.head, a.sums, a.counts
	a.width, a.sums, a.counts = width, [ringSlots]float64{}, [ringSlots]uint32{}
	if a.epoch.IsZero() {
		return
	}
	a.head = a.bucket(a.epoch.Add(time.Duration(head-ringBuckets) * oldWidth))
	for k := head - ringBuckets; k <= head; k++ {
		if s := slot(k); counts[s] > 0 {
			a.add(a.bucket(a.epoch.Add(time.Duration(k)*oldWidth)), sums[s], counts[s])
		}
	}
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
	a.add(a.bucket(at), inFlight, 1)
}

// add puts n observations summing to sum in bucket k, unless k is older
// than every bucket the ring still holds.
func (a *FunctionAutoscaler) add(k int64, sum float64, n uint32) {
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
	a.sums[s] += sum
	a.counts[s] += n
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
	sum, n := a.window(now, d)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// window returns the sum and the number of the observations windowAverage
// averages.
func (a *FunctionAutoscaler) window(now time.Time, d time.Duration) (sum float64, n uint64) {
	if a.epoch.IsZero() {
		return 0, 0
	}
	oldest := max(a.bucket(now.Add(-d)), a.head-ringBuckets)
	for k, s := a.head, slot(a.head); k >= oldest; k-- {
		sum += a.sums[s]
		n += uint64(a.counts[s])
		if s == 0 {
			s = ringSlots
		}
		s--
	}
	return sum, n
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

// span is how far back a decision reads: the longer of the two windows.
func (a *FunctionAutoscaler) span() time.Duration {
	return max(a.cfg.StableWindow, a.cfg.PanicWindow)
}

// Quiet is what is left of a scaler whose function has gone idle, and all
// the function keeps of it until it is active again: enough for Resume to
// rebuild the window of a scaler that went on being fed a 0 at every tick.
type Quiet struct {
	// Origin is the scaler's first observation, which its buckets are
	// counted from; zero if it had none.
	Origin time.Time
	// At is the tick the function went idle at. A function registered at
	// t and not yet observed is Quiet{At: t}: its first tick is after t.
	At time.Time
	// Zeros is how many observations, every one of them 0, the windows
	// held at At; Resume puts them on the ticks up to At.
	Zeros int
}

// Quiesce reports whether the scaler is idle at now, as a decision taken
// at now would find it: its windows hold nothing but zeros, it is
// not in panic mode, and it is past its scale-to-zero grace. An idle
// scaler wants no sandbox beyond MinScale and, fed only zeros, goes on
// wanting none. Its Quiet is what Resume needs to rebuild it.
func (a *FunctionAutoscaler) Quiesce(now time.Time) (Quiet, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum, n := a.window(now, a.span())
	if sum != 0 || a.panicMode || (a.everActive && now.Sub(a.lastPositive) < a.cfg.ScaleToZeroGrace) {
		return Quiet{}, false
	}
	return Quiet{Origin: a.epoch, At: now, Zeros: int(n)}, true
}

// Resume makes a, fresh from New or Reset, the scaler of a function that
// has been idle since q, for ticks every apart: one whose decisions from
// now on are those of the scaler q came from, had it been fed a 0 at every
// tick before now. The zeros q holds sit on the ticks up to q.At, the rest
// on q.At+every, q.At+2·every, … before now; only those the windows can
// still reach are recorded, in bulk, so resuming costs at most one step
// per bucket. A scaler resumed from Quiet{At: t} has been fed a 0 at
// every tick after t, as one built at registration and fed every tick
// would have been.
func (a *FunctionAutoscaler) Resume(q Quiet, every time.Duration, now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epoch = q.Origin
	if every <= 0 {
		return
	}
	// Zeros further back than the windows reach are skipped below; not
	// counting them keeps the product in range.
	zeros := min(q.Zeros, int((a.span()+a.width)/every)+2)
	from := q.At.Add(-time.Duration(zeros-1) * every)
	// The first tick in the bucket the window's far edge falls in.
	if reach := now.Add(-a.span() - a.width); from.Before(reach) {
		from = from.Add((reach.Sub(from) + every - 1) / every * every)
	}
	if !from.Before(now) {
		return
	}
	if a.epoch.IsZero() {
		a.epoch = from
	}
	end := now.Add(-1) // a tick at now is the caller's to record
	for t := from; !t.After(end); {
		k := a.bucket(t)
		// The ticks from t on that fall in bucket k and are before now.
		last := a.epoch.Add(time.Duration(k+1)*a.width - 1)
		if last.After(end) {
			last = end
		}
		n := last.Sub(t)/every + 1
		a.add(k, 0, uint32(n))
		t = t.Add(n * every)
	}
}
