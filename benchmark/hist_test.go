package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Quantiles of the log-linear histogram against the same quantiles of the
// sorted samples: the relative error stays within one bucket width.
func TestHistQuantilesMatchSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	distributions := map[string]func() int64{
		"warm invoke, a few us":   func() int64 { return int64(2500 + rng.ExpFloat64()*800) },
		"cold start, tens of ms":  func() int64 { return int64(math.Exp(rng.NormFloat64()*0.4) * 38e6) },
		"small exact values":      func() int64 { return rng.Int63n(100) },
		"six orders of magnitude": func() int64 { return int64(math.Pow(10, 2+rng.Float64()*6)) },
	}
	for name, draw := range distributions {
		var h hist
		vs := make([]float64, 20000)
		for i := range vs {
			v := draw()
			h.add(v)
			vs[i] = float64(v)
		}
		sort.Float64s(vs)
		if got := h.count(); got != uint64(len(vs)) {
			t.Fatalf("%s: count %d, want %d", name, got, len(vs))
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := vs[int(q*float64(len(vs)-1))]
			got := h.quantile(q)
			if tol := want/histSub + 1; math.Abs(got-want) > tol {
				t.Errorf("%s: q%.3f = %.1f, sorted slice says %.1f (tolerance %.1f)", name, q, got, want, tol)
			}
		}
	}
}

func TestHistEdges(t *testing.T) {
	var h hist
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram: median %v, want 0", got)
	}
	h.add(-5)          // clamped to 0
	h.add(1 << 50)     // clamped to the top bucket
	h.add(histSub - 1) // last exact bucket
	h.add(histSub)     // first log bucket
	h.add(1<<histMaxBits - 1)
	if got := h.count(); got != 5 {
		t.Errorf("count %d, want 5", got)
	}
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if histIndex(int64(lo)) != i || histIndex(int64(hi)-1) != i {
			t.Fatalf("bucket %d [%v,%v) does not map back to itself", i, lo, hi)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
