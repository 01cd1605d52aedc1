// Package telemetry provides the measurement primitives used throughout the
// repository: latency histograms with percentile queries, CDF extraction,
// counters, gauges, and time series. The experiment harness renders these
// into the rows and series reported in the paper's tables and figures.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-size log-linear histogram in HdrHistogram's layout,
// the kind every Registry hands out. Its memory does not grow with the
// number of samples, so a daemon can observe into it forever.
//
// A sample is scaled to whole units (nanoseconds for a latency histogram,
// the value itself for a count histogram) and counted in a bucket: values
// below 2^subBits units get one bucket each, and each power of two above
// that is split into 2^subBits equal sub-buckets (a band). A band's
// counters are allocated the first time a sample lands in it, so an idle
// histogram is about 100 B.
//
// Error bound: a percentile is within 1/128 (0.79 %) of the exact
// recorder's value for values of at least 128 units, and within one unit
// below that. Integer values below 128 (batch sizes, depths) read back
// exactly. Count, Mean, Min and Max are exact.
//
// Observe takes no lock and, once a sample's band exists, allocates
// nothing. Any number of goroutines may Observe while others read or
// Reset; a read concurrent with Reset sees some mix of both. Create one
// with NewHistogram or NewCountHistogram; the zero value is not ready.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Uint64 // float64 bits, in the observed unit
	min   atomic.Uint64 // float64 bits; +Inf when empty
	max   atomic.Uint64 // float64 bits; -Inf when empty
	bands atomic.Pointer[bandTable]
	// scale converts an observed value to bucket units: 1e6 for
	// millisecond samples (nanosecond buckets), 1 for counts.
	scale float64
	// unit suffixes rendered summary values; "ms" unless created with
	// NewCountHistogram.
	unit string
}

const (
	subBits  = 6
	subCount = 1 << subBits
	// Values clamp to 2^maxBits-1 units (about 78 hours in nanoseconds);
	// Max still reports the exact largest sample.
	maxBits  = 48
	numBands = maxBits - subBits + 1
	maxUnits = 1<<maxBits - 1
)

type band [subCount]atomic.Uint64

type bandTable [numBands]atomic.Pointer[band]

// NewHistogram returns an empty bounded histogram of millisecond samples.
func NewHistogram() *Histogram { return newHistogram(1e6, "ms") }

// NewCountHistogram returns an empty bounded histogram of unitless samples
// (batch sizes, queue depths) whose summary renders without a unit.
func NewCountHistogram() *Histogram { return newHistogram(1, "") }

func newHistogram(scale float64, unit string) *Histogram {
	h := &Histogram{scale: scale, unit: unit}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveMs(float64(d) / float64(time.Millisecond))
}

// ObserveMs records one sample expressed in milliseconds (or, for a count
// histogram, the count). NaN samples are dropped.
func (h *Histogram) ObserveMs(v float64) {
	if v != v {
		return
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	b, s := bucketOf(v * h.scale)
	h.band(b)[s].Add(1)
}

// bucketOf returns the band and sub-bucket that count x units. Negative
// values count as 0 and values past maxUnits as maxUnits.
func bucketOf(x float64) (b, s int) {
	var u uint64
	switch {
	case !(x > 0):
	case x >= maxUnits:
		u = maxUnits
	default:
		u = uint64(x)
	}
	if u < subCount {
		return 0, int(u)
	}
	exp := bits.Len64(u) - subBits - 1
	return exp + 1, int(u>>uint(exp)) & (subCount - 1)
}

// bucketValue returns the value, in bucket units, that stands for every
// sample counted in bucket (b, s): the lower bound of a one-unit bucket,
// so integers read back exactly, and the midpoint of a wider one.
func bucketValue(b, s int) float64 {
	if b == 0 {
		return float64(s)
	}
	exp := uint(b - 1)
	lo := float64(uint64(subCount|s) << exp)
	if exp == 0 {
		return lo
	}
	return lo + float64(uint64(1)<<(exp-1))
}

// band returns band b's counters, allocating them on first use.
func (h *Histogram) band(b int) *band {
	t := h.bands.Load()
	if t == nil {
		t = new(bandTable)
		if !h.bands.CompareAndSwap(nil, t) {
			t = h.bands.Load()
		}
	}
	c := t[b].Load()
	if c == nil {
		c = new(band)
		if !t[b].CompareAndSwap(nil, c) {
			c = t[b].Load()
		}
	}
	return c
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int { return int(h.count.Load()) }

// Mean returns the arithmetic mean of the samples.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sum.Load()) / float64(n)
}

// Min returns the smallest sample, or 0 for an empty histogram.
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest sample, or 0 for an empty histogram.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Percentile returns the p-th percentile (0 < p <= 100), interpolated
// between ranks as the exact recorder does, within the error bound in the
// type's comment. It returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) float64 {
	t := h.bands.Load()
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t {
		if c := t[i].Load(); c != nil {
			for j := range c {
				n += c[j].Load()
			}
		}
	}
	if n == 0 {
		return 0
	}
	lo, hi := math.Float64frombits(h.min.Load()), math.Float64frombits(h.max.Load())
	if lo > hi { // reset since the buckets were read
		return 0
	}
	if p <= 0 {
		return lo
	}
	if p >= 100 {
		return hi
	}
	rank := p / 100 * float64(n-1)
	r0 := uint64(rank)
	frac := rank - float64(r0)
	v0 := h.valueAt(t, r0, lo, hi)
	if frac == 0 {
		return v0
	}
	v1 := h.valueAt(t, r0+1, lo, hi)
	if v0 == v1 {
		return v0
	}
	return v0*(1-frac) + v1*frac
}

// valueAt returns the value standing for the sample of the given 0-based
// rank, clamped to [lo, hi], or hi if a concurrent Reset emptied the
// buckets first.
func (h *Histogram) valueAt(t *bandTable, rank uint64, lo, hi float64) float64 {
	var seen uint64
	for i := range t {
		c := t[i].Load()
		if c == nil {
			continue
		}
		for j := range c {
			if seen += c[j].Load(); seen > rank {
				return min(max(bucketValue(i, j)/h.scale, lo), hi)
			}
		}
	}
	return hi
}

// Summary renders a one-line summary with common percentiles.
func (h *Histogram) Summary() string {
	n := h.Count()
	if n == 0 {
		return "n=0"
	}
	u := h.unit
	return fmt.Sprintf("n=%d p50=%.2f%s p95=%.2f%s p99=%.2f%s max=%.2f%s",
		n, h.Percentile(50), u, h.Percentile(95), u, h.Percentile(99), u, h.Max(), u)
}

// Reset discards all recorded samples, e.g. to separate a harness's
// warm-up phase from its measurement phase. Bands stay allocated.
func (h *Histogram) Reset() {
	if t := h.bands.Load(); t != nil {
		for i := range t {
			if c := t[i].Load(); c != nil {
				for j := range c {
					c[j].Store(0)
				}
			}
		}
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
}
