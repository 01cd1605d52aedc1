package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.ObserveMs(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if p := h.Percentile(50); math.Abs(p-50.5) > 1 {
		t.Errorf("p50 = %v", p)
	}
	if p := h.Percentile(99); math.Abs(p-99) > 1.5 {
		t.Errorf("p99 = %v", p)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Count() != 0 {
		t.Errorf("empty histogram should return zeros")
	}
	if h.Summary() != "n=0" {
		t.Errorf("Summary = %q", h.Summary())
	}
	e := NewExactHistogram()
	if e.Percentile(50) != 0 || e.Mean() != 0 || e.Max() != 0 || e.Min() != 0 || e.Count() != 0 {
		t.Errorf("empty exact recorder should return zeros")
	}
	if e.CDF(10) != nil {
		t.Errorf("empty CDF should be nil")
	}
	if e.Summary() != "n=0" {
		t.Errorf("Summary = %q", e.Summary())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.Observe(1500 * time.Microsecond)
	if p := h.Percentile(50); math.Abs(p-1.5) > 1e-9 {
		t.Errorf("duration sample = %v ms", p)
	}
}

// percentiler is what both histogram kinds answer.
type percentiler interface {
	ObserveMs(float64)
	Percentile(float64) float64
}

// TestQuickPercentileBounds property-tests that percentiles stay within
// the sample range and are monotonic in p, for both histogram kinds.
func TestQuickPercentileBounds(t *testing.T) {
	for _, mk := range []func() percentiler{
		func() percentiler { return NewHistogram() },
		func() percentiler { return NewCountHistogram() },
		func() percentiler { return NewExactHistogram() },
	} {
		f := func(values []float64) bool {
			h := mk()
			var min, max float64
			n := 0
			for _, v := range values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				h.ObserveMs(v)
				if n == 0 || v < min {
					min = v
				}
				if n == 0 || v > max {
					max = v
				}
				n++
			}
			if n == 0 {
				return true
			}
			prev := math.Inf(-1)
			for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
				val := h.Percentile(p)
				if val < min-1e-9 || val > max+1e-9 {
					return false
				}
				if val < prev-1e-9 {
					return false // non-monotonic
				}
				prev = val
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%T: %v", mk(), err)
		}
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewExactHistogram()
	for i := 1; i <= 1000; i++ {
		h.ObserveMs(float64(i))
	}
	cdf := h.CDF(11)
	if len(cdf) != 11 {
		t.Fatalf("CDF has %d points", len(cdf))
	}
	if cdf[0].Value != 1 {
		t.Errorf("CDF starts at %v", cdf[0].Value)
	}
	if cdf[len(cdf)-1].Value != 1000 || cdf[len(cdf)-1].Fraction != 1 {
		t.Errorf("CDF ends at %+v", cdf[len(cdf)-1])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
			t.Errorf("CDF not monotonic at %d", i)
		}
	}
	table := FormatCDFTable("test", cdf)
	if !strings.Contains(table, "# test") || !strings.Contains(table, "cdf") {
		t.Errorf("FormatCDFTable output malformed: %q", table[:40])
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.ObserveMs(float64(j))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
	if h.Max() != 999 || h.Min() != 0 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

// relErrBound is the bounded histogram's stated relative error for values
// of at least 128 bucket units (128 ns for latency histograms).
const relErrBound = 1.0 / 128

// TestHistogramMatchesExactRecorder checks the bounded histogram against
// the exact recorder on random latencies spanning 1 us to 60 s (log-
// uniform, so every band is exercised): every percentile from 1 to 99 is
// within the stated bound, and Count, Mean, Min and Max are equal.
func TestHistogramMatchesExactRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Log(0.001), math.Log(60000) // ms
	for trial := 0; trial < 50; trial++ {
		h, e := NewHistogram(), NewExactHistogram()
		n := 1 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			v := math.Exp(lo + rng.Float64()*(hi-lo))
			if i%2 == 0 {
				d := time.Duration(v * float64(time.Millisecond))
				h.Observe(d)
				e.Observe(d)
			} else {
				h.ObserveMs(v)
				e.ObserveMs(v)
			}
		}
		compareExact(t, h, e)
		for p := 1; p <= 99; p++ {
			got, want := h.Percentile(float64(p)), e.Percentile(float64(p))
			if math.Abs(got-want) > want*(relErrBound+1e-12) {
				t.Fatalf("trial %d n=%d p%d = %v, exact %v (rel err %.5f > %.5f)",
					trial, n, p, got, want, math.Abs(got-want)/want, relErrBound)
			}
		}
	}
}

// TestHistogramCountsReadBackExactly checks that integer samples below 128
// (batch sizes) give the exact recorder's percentiles, up to the rounding
// of the rank interpolation both do.
func TestHistogramCountsReadBackExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		h, e := NewCountHistogram(), NewExactHistogram()
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			v := float64(1 + rng.Intn(127))
			h.ObserveMs(v)
			e.ObserveMs(v)
		}
		compareExact(t, h, e)
		for p := 1; p <= 100; p++ {
			if got, want := h.Percentile(float64(p)), e.Percentile(float64(p)); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("trial %d n=%d p%d = %v, exact %v", trial, n, p, got, want)
			}
		}
	}
}

func compareExact(t *testing.T, h *Histogram, e *ExactHistogram) {
	t.Helper()
	if h.Count() != e.Count() || h.Min() != e.Min() || h.Max() != e.Max() {
		t.Fatalf("count/min/max = %d/%v/%v, exact %d/%v/%v",
			h.Count(), h.Min(), h.Max(), e.Count(), e.Min(), e.Max())
	}
	if got, want := h.Mean(), e.Mean(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("mean = %v, exact %v", got, want)
	}
}

func TestHistogramObserveAllocatesNothing(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond) // allocates the band table and one band
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", n)
	}
	c := NewCountHistogram()
	c.ObserveMs(8)
	if n := testing.AllocsPerRun(1000, func() { c.ObserveMs(8) }); n != 0 {
		t.Errorf("count ObserveMs allocates %v times per call, want 0", n)
	}
}

// TestHistogramConcurrentObservePercentileReset races writers against a
// reader and a resetter (meant for -race): no read may leave the observed
// range, and once the writers stop, the histogram is consistent again.
func TestHistogramConcurrentObservePercentileReset(t *testing.T) {
	h := NewHistogram()
	const maxMs = 50.0
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				h.ObserveMs(float64((w*5000+j)%50) + 0.5)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range []float64{0, 1, 50, 99, 100} {
				if v := h.Percentile(p); v < 0 || v > maxMs || v != v {
					t.Errorf("p%v = %v outside [0, %v]", p, v, maxMs)
					return
				}
			}
			if m := h.Mean(); m < 0 || m > maxMs {
				t.Errorf("mean = %v", m)
				return
			}
			_ = h.Summary()
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Reset()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	h.Reset()
	for v := 1; v <= 100; v++ {
		h.ObserveMs(float64(v))
	}
	if h.Count() != 100 || h.Min() != 1 || h.Max() != 100 || h.Mean() != 50.5 {
		t.Errorf("after reset: count=%d min=%v max=%v mean=%v", h.Count(), h.Min(), h.Max(), h.Mean())
	}
	if p := h.Percentile(50); math.Abs(p-50.5) > 50.5*relErrBound {
		t.Errorf("after reset: p50 = %v", p)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Millisecond)
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Counter = %d", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Gauge = %d", g.Value())
	}
}

func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries()
	ts.Record(100*time.Millisecond, 1)
	ts.Record(900*time.Millisecond, 1)
	ts.Record(1100*time.Millisecond, 1)
	ts.Record(2500*time.Millisecond, 2)
	buckets := ts.BucketPerSecond()
	want := []float64{2, 1, 2}
	if len(buckets) != len(want) {
		t.Fatalf("buckets = %v", buckets)
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, buckets[i], want[i])
		}
	}
	if ts.Len() != 4 {
		t.Errorf("Len = %d", ts.Len())
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries()
	if ts.BucketPerSecond() != nil {
		t.Errorf("empty series should bucket to nil")
	}
}

func TestComputeStats(t *testing.T) {
	st := ComputeStats([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if st.N != 10 || st.Avg != 5.5 || st.Max != 10 {
		t.Errorf("stats = %+v", st)
	}
	if st.P50 < 5 || st.P50 > 6 {
		t.Errorf("p50 = %v", st.P50)
	}
	if ComputeStats(nil).N != 0 {
		t.Errorf("empty stats should be zero")
	}
	if s := st.String(); !strings.Contains(s, "n=10") {
		t.Errorf("String = %q", s)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	r.Gauge("b").Set(3)
	r.Histogram("c").ObserveMs(1)
	if r.Counter("a").Value() != 2 {
		t.Errorf("counter identity not preserved")
	}
	dump := r.Dump()
	for _, want := range []string{"a 2", "b 3", "c n=1"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
}
