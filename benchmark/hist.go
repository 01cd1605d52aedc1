package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a fixed-size log-linear histogram of non-negative int64 values
// (nanoseconds everywhere in this package): values below 2^histSubBits are
// counted exactly, larger ones in 2^histSubBits equal-width buckets per
// power of two, so a quantile is off by at most 1/128 of its value. It
// never grows, Add is one atomic increment, and any number of goroutines
// may Add while another reads.
type hist struct {
	counts [histBuckets]atomic.Uint32
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values are clamped to 2^histMaxBits-1 ns (about 18 minutes).
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1 // >= 0
	return (exp+1)<<histSubBits | int(v>>uint(exp))&(histSub-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	exp := uint(i>>histSubBits - 1)
	base := int64(histSub|i&(histSub-1)) << exp
	return float64(base), float64(base + 1<<exp)
}

func (h *hist) add(v int64) { h.counts[histIndex(v)].Add(1) }

func (h *hist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += uint64(h.counts[i].Load())
	}
	return n
}

// quantile returns the q-quantile (0 <= q <= 1), interpolating linearly by
// rank inside the bucket that holds it, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if rank < seen+c {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen+0.5)/c
		}
		seen += c
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// median returns the middle of vs (mean of the two middle values for an
// even count), or NaN when vs is empty. It sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
