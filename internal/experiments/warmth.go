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
	"dirigent/internal/predictor"
	"dirigent/internal/telemetry"
	"dirigent/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "warmth",
		Title: "Predictive warmth ablation: per-image prewarm pools × cache-aware placement on the Azure-like trace",
		Run:   runWarmth,
	})
}

// warmthTimeScale compresses trace time onto the wall clock: one trace
// minute replays in one wall second, so timer periods, autoscaler windows,
// and the predictor's demand windows all shrink by the same factor and the
// trace's temporal structure (synchronized timer bursts, idle gaps long
// enough to scale to zero) survives the compression.
const warmthTimeScale = 1.0 / 30.0

type warmthRow struct {
	Mode        string  `json:"mode"`      // "static" | "predictive"
	Placement   string  `json:"placement"` // "kube-default" | "cache-aware"
	Invocations int     `json:"invocations"`
	ColdStarts  int     `json:"cold_starts"`
	ColdP50Ms   float64 `json:"cold_start_p50_ms"`
	ColdP99Ms   float64 `json:"cold_start_p99_ms"`
	// PrewarmHitRate is the fraction of cold starts served by a pool
	// entry already warmed for the function's own image (zero by
	// construction in static mode, whose pool holds only the generic
	// base image); BaseHitRate is the fraction served by a base-image
	// entry, which still pays the image pull at claim time.
	PrewarmHitRate float64 `json:"prewarm_hit_rate"`
	BaseHitRate    float64 `json:"base_hit_rate"`
	ImagePulls     int64   `json:"image_pulls"`
}

// runWarmth replays the compressed Azure-like trace against the live
// in-process cluster under the four ablation arms {static, predictive} ×
// {kube-default, cache-aware} and reports cold-start latency, prewarm hit
// rates, and image-pull counts. The rows are also committed to
// BENCH_warmth.json.
func runWarmth(w io.Writer, scale float64) error {
	tr := trace.NewAzureLike(trace.Config{
		Functions: scaleInt(96, scale, 12),
		Duration:  maxDuration(time.Duration(float64(12*time.Minute)*scale), 4*time.Minute),
		Seed:      7,
	})
	warmup := warmupFor(tr)
	fmt.Fprintf(w, "trace: %d functions, %d invocations over %v (replayed in %v wall)\n",
		len(tr.Functions), len(tr.Invocations), tr.Duration,
		time.Duration(float64(tr.Duration)*warmthTimeScale).Round(time.Second))

	arms := []struct {
		mode, placement        string
		predictive, cacheAware bool
	}{
		{"static", "kube-default", false, false},
		{"static", "cache-aware", false, true},
		{"predictive", "kube-default", true, false},
		{"predictive", "cache-aware", true, true},
	}
	rows := make([]warmthRow, 0, len(arms))
	for _, arm := range arms {
		row, err := runWarmthArm(tr, warmup, arm.predictive, arm.cacheAware)
		if err != nil {
			return fmt.Errorf("arm %s/%s: %w", arm.mode, arm.placement, err)
		}
		row.Mode, row.Placement = arm.mode, arm.placement
		rows = append(rows, row)
		fmt.Fprintf(w, "%-11s %-13s inv=%-5d cold=%-4d p50=%6.2fms p99=%7.2fms hit=%5.1f%% base=%5.1f%% pulls=%d\n",
			row.Mode, row.Placement, row.Invocations, row.ColdStarts,
			row.ColdP50Ms, row.ColdP99Ms, 100*row.PrewarmHitRate, 100*row.BaseHitRate, row.ImagePulls)
	}

	fmt.Fprintln(w, "# Expected shape: predictive+cache-aware strictly beats static+kube-default on")
	fmt.Fprintln(w, "# cold-start p99 AND prewarm hit rate: per-image pools pay the image pull at")
	fmt.Fprintln(w, "# fill time (off the critical path) where static base-image claims pay it at")
	fmt.Fprintln(w, "# claim time, and cache-aware placement steers repeats onto nodes whose digest")
	fmt.Fprintln(w, "# already advertises the image, so far fewer cold starts pull at all.")

	if scale < 1 {
		// Sub-scale runs (CI smoke) exercise the harness without
		// overwriting the committed paper-scale artifact.
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_warmth.json", append(data, '\n'), 0o644)
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

func runWarmthArm(tr *trace.Trace, warmup time.Duration, predictive, cacheAware bool) (warmthRow, error) {
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
		PredictivePrewarm: predictive,
		Predictor: predictor.Config{
			// One trace minute = one demand window, compressed.
			Window: time.Duration(float64(time.Minute) * warmthTimeScale),
			Lead:   time.Duration(float64(30*time.Second) * warmthTimeScale),
		},
		Placer: placer,
		Seed:   42,
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
	var baseHits, baseImageHits, baseAllHits, baseMisses, basePulls int64
	snapped := false
	snapshot := func() (imageHits, baseOnly, allHits, misses, pulls int64) {
		imageHits = c.Metrics.Counter("prewarm_image_hits").Value()
		baseOnly = c.Metrics.Counter("prewarm_base_hits").Value()
		allHits = c.Metrics.Counter("prewarm_hits").Value()
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
			// (cache population, the predictor's learning phase) is
			// methodology, not measurement.
			baseImageHits, baseHits, baseAllHits, baseMisses, basePulls = snapshot()
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
	imageHits, baseOnly, allHits, misses, pulls := snapshot()
	if os.Getenv("WARMTH_DEBUG") != "" {
		for _, name := range []string{"cold_starts", "warm_starts", "sandboxes_created", "sandboxes_killed",
			"prewarm_filled", "prewarm_hits", "prewarm_image_hits", "prewarm_base_hits", "prewarm_misses",
			"prewarm_evictions", "prewarm_pushes", "prewarm_push_errors", "prewarm_create_errors"} {
			fmt.Fprintf(os.Stderr, "DEBUG %s=%d\n", name, c.Metrics.Counter(name).Value())
		}
		if cp := c.Leader(); cp != nil {
			gen, set := cp.PrewarmTargetSnapshot()
			fmt.Fprintf(os.Stderr, "DEBUG prewarm gen=%d set=%v\n", gen, set)
		}
	}

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
	// Denominator: every cold create that consulted the pool (a hit of
	// either flavor or a miss), counted over the measurement window.
	if claims := (allHits - baseAllHits) + (misses - baseMisses); claims > 0 {
		row.PrewarmHitRate = float64(imageHits-baseImageHits) / float64(claims)
		row.BaseHitRate = float64(baseOnly-baseHits) / float64(claims)
	}
	row.ImagePulls = pulls - basePulls
	return row, nil
}
