package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// ExactHistogram records every duration sample and answers exact
// percentile and CDF queries. Its memory grows with every sample, so it
// is for offline harnesses (experiments, simulations, load generators)
// that need exact distributions, never for a daemon's Registry.
type ExactHistogram struct {
	mu      sync.Mutex
	samples []float64 // milliseconds
	sorted  bool
}

// NewExactHistogram returns an empty exact recorder of millisecond
// samples.
func NewExactHistogram() *ExactHistogram { return &ExactHistogram{} }

// Observe records one duration sample.
func (h *ExactHistogram) Observe(d time.Duration) {
	h.ObserveMs(float64(d) / float64(time.Millisecond))
}

// ObserveMs records one sample expressed in milliseconds.
func (h *ExactHistogram) ObserveMs(ms float64) {
	h.mu.Lock()
	h.samples = append(h.samples, ms)
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *ExactHistogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

func (h *ExactHistogram) sortLocked() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) in milliseconds,
// interpolating linearly between the two nearest ranks. It returns 0 for
// an empty histogram.
func (h *ExactHistogram) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.percentileLocked(p)
}

func (h *ExactHistogram) percentileLocked(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Mean returns the arithmetic mean of the samples in milliseconds.
func (h *ExactHistogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range h.samples {
		sum += s
	}
	return sum / float64(len(h.samples))
}

// Max returns the largest sample in milliseconds.
func (h *ExactHistogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[len(h.samples)-1]
}

// Min returns the smallest sample in milliseconds.
func (h *ExactHistogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[0]
}

// Snapshot returns a copy of the raw samples in milliseconds, sorted
// ascending.
func (h *ExactHistogram) Snapshot() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sortLocked()
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// CDFPoint is one point of an empirical cumulative distribution.
type CDFPoint struct {
	Value    float64 // sample value (milliseconds for latency histograms)
	Fraction float64 // cumulative fraction in (0, 1]
}

// CDF returns an empirical CDF downsampled to at most points entries
// (plus the exact min and max).
func (h *ExactHistogram) CDF(points int) []CDFPoint {
	s := h.Snapshot()
	if len(s) == 0 {
		return nil
	}
	if points < 2 {
		points = 2
	}
	out := make([]CDFPoint, 0, points)
	step := float64(len(s)-1) / float64(points-1)
	for i := 0; i < points; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out = append(out, CDFPoint{Value: s[idx], Fraction: float64(idx+1) / float64(len(s))})
	}
	return out
}

// Summary renders a one-line summary with common percentiles.
func (h *ExactHistogram) Summary() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms",
		n, h.percentileLocked(50), h.percentileLocked(95), h.percentileLocked(99), h.percentileLocked(100))
}

// FormatCDFTable renders a CDF as an aligned two-column text table,
// used by the experiment harness for figure series output.
func FormatCDFTable(name string, cdf []CDFPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", name)
	fmt.Fprintf(&b, "%-14s %s\n", "value_ms", "cdf")
	for _, p := range cdf {
		fmt.Fprintf(&b, "%-14.3f %.4f\n", p.Value, p.Fraction)
	}
	return b.String()
}
