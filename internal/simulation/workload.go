package simulation

import (
	"math"
	"sort"
	"time"

	"dirigent/internal/telemetry"
	"dirigent/internal/trace"
)

// Collector accumulates invocation results during a simulation run.
// Simulations are single-threaded, so no locking is needed.
type Collector struct {
	Results []Result
}

// Done records one result; pass it as the Invoke completion callback.
func (c *Collector) Done(r Result) { c.Results = append(c.Results, r) }

// Completed returns the number of completed (non-failed) invocations.
func (c *Collector) Completed() int {
	n := 0
	for _, r := range c.Results {
		if !r.Failed {
			n++
		}
	}
	return n
}

// FailureRate returns the fraction of failed invocations.
func (c *Collector) FailureRate() float64 {
	if len(c.Results) == 0 {
		return 0
	}
	return float64(len(c.Results)-c.Completed()) / float64(len(c.Results))
}

// E2E returns a histogram of end-to-end latencies in milliseconds.
func (c *Collector) E2E() *telemetry.ExactHistogram {
	h := telemetry.NewExactHistogram()
	for _, r := range c.Results {
		if !r.Failed {
			h.Observe(r.E2E)
		}
	}
	return h
}

// Scheduling returns a histogram of per-invocation scheduling latencies.
func (c *Collector) Scheduling() *telemetry.ExactHistogram {
	h := telemetry.NewExactHistogram()
	for _, r := range c.Results {
		if !r.Failed {
			h.Observe(r.Scheduling)
		}
	}
	return h
}

// Slowdowns returns a histogram of per-invocation slowdowns.
func (c *Collector) Slowdowns() *telemetry.ExactHistogram {
	h := telemetry.NewExactHistogram()
	for _, r := range c.Results {
		if !r.Failed {
			h.ObserveMs(r.Slowdown())
		}
	}
	return h
}

// PerFunctionSlowdown returns one geometric-mean slowdown per function
// (the paper's Figure 9 metric: "we group by function and report the
// geometric mean slowdown per function").
func (c *Collector) PerFunctionSlowdown() *telemetry.ExactHistogram {
	byFn := make(map[string][]float64)
	for _, r := range c.Results {
		if !r.Failed {
			byFn[r.Function] = append(byFn[r.Function], r.Slowdown())
		}
	}
	h := telemetry.NewExactHistogram()
	for _, slows := range byFn {
		var logSum float64
		for _, s := range slows {
			if s < 1e-9 {
				s = 1e-9
			}
			logSum += math.Log(s)
		}
		h.ObserveMs(math.Exp(logSum / float64(len(slows))))
	}
	return h
}

// PerFunctionScheduling returns one mean scheduling latency per function
// (Figure 10's right panel / Figure 5's per-function series).
func (c *Collector) PerFunctionScheduling() *telemetry.ExactHistogram {
	byFn := make(map[string][]time.Duration)
	for _, r := range c.Results {
		if !r.Failed {
			byFn[r.Function] = append(byFn[r.Function], r.Scheduling)
		}
	}
	h := telemetry.NewExactHistogram()
	for _, ds := range byFn {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		h.Observe(sum / time.Duration(len(ds)))
	}
	return h
}

// SlowdownTimeline buckets mean per-invocation slowdown by arrival second,
// used for the fault-tolerance timeline (Figure 11). Arrival time is
// reconstructed as completion minus E2E.
type timelinePoint struct {
	at       time.Duration
	slowdown float64
}

// helloFunction builds the microbenchmark function: a hello-world-style
// trivial function (the paper's cold/warm sweeps use hello-world with
// pre-cached images).
func helloFunction(name string) *trace.FunctionSpec {
	return &trace.FunctionSpec{
		Name:       name,
		Class:      trace.ClassPoisson,
		ExecMedian: 10 * time.Millisecond,
		ExecSigma:  0.05,
		MemoryMB:   128,
	}
}

// RunColdRateSweep drives cold starts at a steady rate (paper Figure 7):
// every invocation targets a fresh function, so every invocation requires
// a sandbox creation. Returns the collector after the run drains.
func RunColdRateSweep(eng *Engine, m Model, rate float64, duration time.Duration) *Collector {
	col := &Collector{}
	gap := time.Duration(float64(time.Second) / rate)
	n := int(float64(duration) / float64(gap))
	exec := 10 * time.Millisecond
	for i := 0; i < n; i++ {
		i := i
		at := time.Duration(i) * gap
		eng.At(at, func() {
			fn := helloFunction("cold-" + itoa(i))
			m.Register(fn)
			m.Invoke(fn, exec, col.Done)
		})
	}
	// Drain generously: saturated systems hold long queues.
	eng.Run(duration + 10*time.Minute)
	return col
}

// RunWarmRateSweep drives warm starts at a steady rate against a
// pre-warmed function pool (paper Figure 8): the control plane is off the
// critical path; only the data plane is stressed.
func RunWarmRateSweep(eng *Engine, m Model, rate float64, duration time.Duration) *Collector {
	type prewarmer interface {
		Prewarm(fn *trace.FunctionSpec, n int)
	}
	col := &Collector{}
	// Hello-world execution is near-instant; the measurement isolates the
	// data plane (front-end LB, proxy, throttler) as in the paper.
	exec := 500 * time.Microsecond
	// Enough warm sandboxes that the sweep never cold-starts: steady-state
	// concurrency ≈ rate × (exec + overhead), with ample headroom.
	sandboxes := int(rate*0.05) + 64
	fn := helloFunction("warm-fn")
	if pw, ok := m.(prewarmer); ok {
		pw.Prewarm(fn, sandboxes)
	} else {
		m.Register(fn)
	}
	gap := time.Duration(float64(time.Second) / rate)
	n := int(float64(duration) / float64(gap))
	for i := 0; i < n; i++ {
		at := time.Duration(i) * gap
		eng.At(at, func() {
			m.Invoke(fn, exec, col.Done)
		})
	}
	eng.Run(duration + 5*time.Minute)
	return col
}

// RunColdBurst issues n concurrent cold starts at t=0 (paper Figures 1
// and 2) and returns the collector.
func RunColdBurst(eng *Engine, m Model, n int) *Collector {
	col := &Collector{}
	exec := 10 * time.Millisecond
	for i := 0; i < n; i++ {
		fn := helloFunction("burst-" + itoa(i))
		m.Register(fn)
		eng.At(0, func() {
			m.Invoke(fn, exec, col.Done)
		})
	}
	eng.Run(30 * time.Minute)
	return col
}

// ReplayTrace replays a trace against the model (paper §5.3), registering
// all functions first, then running to completion plus a drain period.
// warmup discards results for invocations arriving before it.
func ReplayTrace(eng *Engine, m Model, tr *trace.Trace, warmup time.Duration) *Collector {
	col := &Collector{}
	for _, fn := range tr.Functions {
		m.Register(fn)
	}
	for _, inv := range tr.Invocations {
		inv := inv
		eng.At(inv.At, func() {
			arrivedAt := eng.Now()
			m.Invoke(inv.Function, inv.Exec, func(r Result) {
				if arrivedAt >= warmup {
					col.Done(r)
				}
			})
		})
	}
	eng.Run(tr.Duration + 10*time.Minute)
	return col
}

// CreationRateStats converts sandbox creation timestamps into per-second
// rates and summary statistics (paper Figure 3).
func CreationRateStats(times []time.Duration, duration time.Duration, discard time.Duration) (perSecond []float64, stats telemetry.Stats) {
	if duration <= 0 {
		return nil, telemetry.Stats{}
	}
	buckets := make([]float64, int(duration/time.Second)+1)
	for _, t := range times {
		if t < discard || t >= duration {
			continue
		}
		buckets[int(t/time.Second)]++
	}
	perSecond = buckets[int(discard/time.Second):]
	return perSecond, telemetry.ComputeStats(perSecond)
}

// SlowdownTimelineSeries aggregates per-invocation slowdowns into
// per-second means ordered by arrival time (Figure 11).
func SlowdownTimelineSeries(results []Result, e2eOffsetsEnd []time.Duration) []telemetry.TimePoint {
	if len(results) != len(e2eOffsetsEnd) {
		return nil
	}
	pts := make([]timelinePoint, 0, len(results))
	for i, r := range results {
		if r.Failed {
			continue
		}
		arrival := e2eOffsetsEnd[i] - r.E2E
		pts = append(pts, timelinePoint{at: arrival, slowdown: r.Slowdown()})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].at < pts[j].at })
	var out []telemetry.TimePoint
	var bucketSum float64
	var bucketN int
	bucket := time.Duration(-1)
	for _, p := range pts {
		b := p.at / time.Second
		if b != bucket && bucketN > 0 {
			out = append(out, telemetry.TimePoint{At: bucket * time.Second, Value: bucketSum / float64(bucketN)})
			bucketSum, bucketN = 0, 0
		}
		bucket = b
		bucketSum += p.slowdown
		bucketN++
	}
	if bucketN > 0 {
		out = append(out, telemetry.TimePoint{At: bucket * time.Second, Value: bucketSum / float64(bucketN)})
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
