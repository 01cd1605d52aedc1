package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// TimeSeries records (time, value) points, e.g. sandbox creations per
// second over an experiment, or per-invocation slowdown around a failure.
type TimeSeries struct {
	mu     sync.Mutex
	points []TimePoint
}

// TimePoint is a single observation of a time series.
type TimePoint struct {
	At    time.Duration // offset from experiment start
	Value float64
}

// NewTimeSeries returns an empty time series.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Record appends one point.
func (ts *TimeSeries) Record(at time.Duration, v float64) {
	ts.mu.Lock()
	ts.points = append(ts.points, TimePoint{At: at, Value: v})
	ts.mu.Unlock()
}

// Points returns a copy of all points sorted by time.
func (ts *TimeSeries) Points() []TimePoint {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TimePoint, len(ts.points))
	copy(out, ts.points)
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the number of recorded points.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.points)
}

// BucketPerSecond aggregates the series into per-second sums, returning one
// value per second from 0 to the last observation. Used to turn individual
// sandbox-creation events into a creations-per-second series (Figure 3).
func (ts *TimeSeries) BucketPerSecond() []float64 {
	pts := ts.Points()
	if len(pts) == 0 {
		return nil
	}
	last := pts[len(pts)-1].At
	buckets := make([]float64, int(last/time.Second)+1)
	for _, p := range pts {
		buckets[int(p.At/time.Second)] += p.Value
	}
	return buckets
}

// Stats summarizes a float slice with the percentile statistics the paper
// reports for Figure 3 (avg, p50, p95, p99).
type Stats struct {
	Avg, P50, P95, P99, Max float64
	N                       int
}

// ComputeStats computes summary statistics over values.
func ComputeStats(values []float64) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	pct := func(p float64) float64 {
		idx := int(p / 100 * float64(len(s)-1))
		return s[idx]
	}
	return Stats{
		Avg: sum / float64(len(s)),
		P50: pct(50),
		P95: pct(95),
		P99: pct(99),
		Max: s[len(s)-1],
		N:   len(s),
	}
}

// String renders the stats in a compact single line.
func (st Stats) String() string {
	return fmt.Sprintf("n=%d avg=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f",
		st.N, st.Avg, st.P50, st.P95, st.P99, st.Max)
}

// Registry is a named collection of counters, gauges and histograms that a
// component exposes, mirroring Dirigent's per-component HTTP metrics
// endpoints (paper §4, "Operations and monitoring"). Its histograms are
// the bounded kind, so a registry does not grow with the samples it takes.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// CountHistogram returns the histogram with the given name, creating it
// as a unitless count histogram (batch sizes, depths) on first use.
func (r *Registry) CountHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewCountHistogram()
		r.histograms[name] = h
	}
	return h
}

// Dump renders every metric as "name value" lines, sorted by name.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, "counter/"+n)
	}
	for n := range r.gauges {
		names = append(names, "gauge/"+n)
	}
	for n := range r.histograms {
		names = append(names, "histogram/"+n)
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		kind, name := n[:len(n)-len(n[indexByte(n, '/')+1:])-1], n[indexByte(n, '/')+1:]
		switch kind {
		case "counter":
			b = fmt.Appendf(b, "%s %d\n", name, r.counters[name].Value())
		case "gauge":
			b = fmt.Appendf(b, "%s %d\n", name, r.gauges[name].Value())
		case "histogram":
			b = fmt.Appendf(b, "%s %s\n", name, r.histograms[name].Summary())
		}
	}
	return string(b)
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}
