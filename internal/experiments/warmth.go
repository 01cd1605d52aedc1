package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
	"dirigent/internal/placement"
	"dirigent/internal/telemetry"
	"dirigent/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "warmth",
		Title: "Cache-aware placement ablation: static prewarm pools × {kube-default, cache-aware} over five Azure-like trace seeds",
		Run:   runWarmth,
	})
}

// warmthTimeScale compresses trace time onto the wall clock: one trace
// minute replays in two wall seconds, so timer periods and autoscaler
// windows shrink by the same factor and the trace's temporal structure
// (synchronized timer bursts, idle gaps long enough to scale to zero)
// survives the compression.
const warmthTimeScale = 1.0 / 30.0

// warmthSeeds are the trace seeds a full-scale run replays; each seed's
// clusters are seeded 42 + trace seed. Sub-scale runs (CI smoke) replay
// the first only.
var warmthSeeds = []int64{7, 8, 9, 10, 11}

type warmthRow struct {
	Seed        int64   `json:"seed,omitempty"` // trace seed; absent on median rows
	Placement   string  `json:"placement"`      // "kube-default" | "cache-aware"
	Invocations int     `json:"invocations"`
	ColdStarts  int     `json:"cold_starts"`
	ColdP50Ms   float64 `json:"cold_start_p50_ms"`
	ColdP99Ms   float64 `json:"cold_start_p99_ms"`
	// PrewarmHitRate is the fraction of cold creates served by a pool
	// entry, which still pays the function's image pull at claim time
	// unless the node's cache holds it.
	PrewarmHitRate float64 `json:"prewarm_hit_rate"`
	ImagePulls     int64   `json:"image_pulls"`
}

// warmthReport is what BENCH_warmth.json holds: one row per seed and
// placement, and per placement the median of each column across seeds.
type warmthReport struct {
	Rows   []warmthRow `json:"rows"`
	Median []warmthRow `json:"median"`
}

var warmthPlacements = []string{"kube-default", "cache-aware"}

// runWarmth replays compressed Azure-like traces against the live
// in-process cluster, every worker keeping a static base-image prewarm
// pool, under kube-default and cache-aware placement, and reports
// cold-start latency, pool hit rate and image pulls per trace seed and
// their medians. Full-scale rows are committed to BENCH_warmth.json.
func runWarmth(w io.Writer, scale float64) error {
	seeds := warmthSeeds
	if scale < 1 {
		seeds = seeds[:1]
	}
	var rep warmthReport
	for _, seed := range seeds {
		tr := trace.NewAzureLike(trace.Config{
			Functions: scaleInt(96, scale, 12),
			Duration:  maxDuration(time.Duration(float64(12*time.Minute)*scale), 4*time.Minute),
			Seed:      seed,
		})
		fmt.Fprintf(w, "seed %d: %d functions, %d invocations over %v (replayed in %v wall)\n",
			seed, len(tr.Functions), len(tr.Invocations), tr.Duration,
			time.Duration(float64(tr.Duration)*warmthTimeScale).Round(time.Second))
		for _, name := range warmthPlacements {
			row, err := runWarmthArm(tr, 42+seed, name == "cache-aware")
			if err != nil {
				return fmt.Errorf("seed %d, %s: %w", seed, name, err)
			}
			row.Seed, row.Placement = seed, name
			rep.Rows = append(rep.Rows, row)
			printWarmthRow(w, fmt.Sprint(seed), row)
		}
	}
	for _, name := range warmthPlacements {
		median := func(col func(warmthRow) float64) float64 {
			var vals []float64
			for _, r := range rep.Rows {
				if r.Placement == name {
					vals = append(vals, col(r))
				}
			}
			return percentile(vals, 0.5)
		}
		row := warmthRow{
			Placement:      name,
			Invocations:    int(median(func(r warmthRow) float64 { return float64(r.Invocations) })),
			ColdStarts:     int(median(func(r warmthRow) float64 { return float64(r.ColdStarts) })),
			ColdP50Ms:      median(func(r warmthRow) float64 { return r.ColdP50Ms }),
			ColdP99Ms:      median(func(r warmthRow) float64 { return r.ColdP99Ms }),
			PrewarmHitRate: median(func(r warmthRow) float64 { return r.PrewarmHitRate }),
			ImagePulls:     int64(median(func(r warmthRow) float64 { return float64(r.ImagePulls) })),
		}
		rep.Median = append(rep.Median, row)
		printWarmthRow(w, "median", row)
	}

	// Rows alternate kube-default, cache-aware within each seed.
	var p99Wins, pullWins int
	for i := 0; i+1 < len(rep.Rows); i += 2 {
		kube, aware := rep.Rows[i], rep.Rows[i+1]
		if aware.ColdP99Ms < kube.ColdP99Ms {
			p99Wins++
		}
		if aware.ImagePulls < kube.ImagePulls {
			pullWins++
		}
	}
	fmt.Fprintf(w, "# cache-aware beat kube-default on cold-start p99 in %d of %d seeds and on image pulls in %d of %d:\n",
		p99Wins, len(seeds), pullWins, len(seeds))
	fmt.Fprintln(w, "# it steers a cold start to a node whose cache digest holds the image, so the")
	fmt.Fprintln(w, "# pool entry it claims skips the pull.")

	if scale < 1 {
		// Sub-scale runs exercise the harness without overwriting the
		// committed paper-scale artifact.
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_warmth.json", append(data, '\n'), 0o644)
}

func printWarmthRow(w io.Writer, seed string, row warmthRow) {
	fmt.Fprintf(w, "%-7s %-13s inv=%-5d cold=%-4d p50=%6.2fms p99=%7.2fms hit=%5.1f%% pulls=%d\n",
		seed, row.Placement, row.Invocations, row.ColdStarts,
		row.ColdP50Ms, row.ColdP99Ms, 100*row.PrewarmHitRate, row.ImagePulls)
}

func warmthFunction(spec *trace.FunctionSpec) core.Function {
	fn := core.Function{
		Name:    spec.Name,
		Image:   "registry.local/" + spec.Name,
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	// Autoscaler windows compressed like the trace, so functions scale to
	// zero between timer firings just as they would over real minutes.
	fn.Scaling.StableWindow = 300 * time.Millisecond
	fn.Scaling.PanicWindow = 100 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = 100 * time.Millisecond
	return fn
}

func runWarmthArm(tr *trace.Trace, seed int64, cacheAware bool) (warmthRow, error) {
	var placer placement.Policy // nil selects the CP's kube-default
	if cacheAware {
		placer = placement.NewCacheAware(1)
	}
	c, err := cluster.New(cluster.Options{
		ControlPlanes:     1,
		DataPlanes:        2,
		Workers:           12,
		Runtime:           "containerd",
		LatencyScale:      0.05,
		AutoscaleInterval: 10 * time.Millisecond,
		MetricInterval:    5 * time.Millisecond,
		// The CP suppresses downscale for NoDownscaleWindow after taking
		// leadership (failover hygiene); the compressed replay needs
		// scale-to-zero from the first second, so effectively disable it.
		NoDownscaleWindow: time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		QueueTimeout:      10 * time.Second,
		Prewarm:           12,
		Placer:            placer,
		Seed:              seed,
	})
	if err != nil {
		return warmthRow{}, err
	}
	defer c.Shutdown()

	for _, spec := range tr.Functions {
		fn := warmthFunction(spec)
		if err := c.RegisterFunction(fn); err != nil {
			return warmthRow{}, err
		}
		c.RegisterWorkload(fn.Image, 0)
	}

	type sample struct {
		at      time.Duration // trace time
		cold    bool
		schedMs float64
		failed  bool
	}
	samples := make([]sample, len(tr.Invocations))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 512)
	warmup := warmupFor(tr)
	var baseHits, baseMisses, basePulls int64
	snapped := false
	snapshot := func() (hits, misses, pulls int64) {
		hits = c.Metrics.Counter("prewarm_hits").Value()
		misses = c.Metrics.Counter("prewarm_misses").Value()
		for _, cache := range c.Caches {
			_, m := cache.Stats()
			pulls += int64(m)
		}
		return
	}

	start := time.Now()
	for i, inv := range tr.Invocations {
		if !snapped && inv.At >= warmup {
			// Counter baselines at the warmup cutoff: everything before
			// (cache population, pools filling) is methodology, not
			// measurement.
			baseHits, baseMisses, basePulls = snapshot()
			snapped = true
		}
		at := time.Duration(float64(inv.At) * warmthTimeScale)
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string, traceAt time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			resp, err := c.Invoke(ctx, name, nil)
			if err != nil {
				samples[i] = sample{at: traceAt, failed: true}
				return
			}
			samples[i] = sample{
				at:      traceAt,
				cold:    resp.ColdStart,
				schedMs: float64(resp.SchedulingLatencyUs) / 1000,
			}
		}(i, inv.Function.Name, inv.At)
	}
	wg.Wait()
	hits, misses, pulls := snapshot()

	hist := telemetry.NewExactHistogram()
	row := warmthRow{}
	for _, s := range samples {
		if s.at < warmup || s.failed {
			continue
		}
		row.Invocations++
		if s.cold {
			row.ColdStarts++
			hist.ObserveMs(s.schedMs)
		}
	}
	row.ColdP50Ms = hist.Percentile(50)
	row.ColdP99Ms = hist.Percentile(99)
	// Denominator: every cold create that consulted the pool (a hit or a
	// miss), counted over the measurement window.
	if claims := (hits - baseHits) + (misses - baseMisses); claims > 0 {
		row.PrewarmHitRate = float64(hits-baseHits) / float64(claims)
	}
	row.ImagePulls = pulls - basePulls
	return row, nil
}
