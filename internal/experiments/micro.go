package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dirigent/internal/simulation"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Knative cold-start latency breakdown vs concurrent creations (paper Fig. 1)",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "AWS Lambda end-to-end latency CDFs vs cold-start burst size (paper Fig. 2)",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Cold start performance sweep: p50/p99 vs rate, all systems + ablations (paper Fig. 7)",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Warm start performance sweep: p50/p99 vs rate (paper Fig. 8)",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "scalability",
		Title: "Peak cold-start throughput vs cluster size (paper §5.2.3)",
		Run:   runScalability,
	})
	register(Experiment{
		ID:    "registration",
		Title: "Function registration latency, Dirigent vs Knative (paper §5.2.4)",
		Run:   runRegistration,
	})
}

// runFig1 reproduces Figure 1: median cold-start latency breakdown for
// bursts of concurrent sandbox creations in Knative.
func runFig1(w io.Writer, scale float64) error {
	bursts := []int{1, 25, 50, 100}
	t := newTable("burst", "median_total_ms", "control_plane_ms", "sandbox_creation_ms", "sandbox_init_ms", "other_ms")
	for _, burst := range bursts {
		b := scaleInt(burst, scale, 1)
		eng := simulation.NewEngine()
		model := simulation.NewKnative(eng, simulation.KnativeConfig{Seed: 1})
		col := simulation.RunColdBurst(eng, model, b)
		e2e := col.E2E()
		bds := model.Breakdowns()
		cp := medianOf(bds, func(x simulation.CreationBreakdown) time.Duration { return x.ControlPlane })
		create := medianOf(bds, func(x simulation.CreationBreakdown) time.Duration { return x.SandboxCreation })
		boot := medianOf(bds, func(x simulation.CreationBreakdown) time.Duration { return x.SandboxInit })
		other := medianOf(bds, func(x simulation.CreationBreakdown) time.Duration { return x.Other })
		t.addRow(b, e2e.Percentile(50), ms(cp), ms(create), ms(boot), ms(other))
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: control-plane component grows with burst size (≈2s at 100),")
	fmt.Fprintln(w, "# while sandbox creation (~400ms) and init (~500ms) stay flat.")
	return nil
}

func medianOf(bds []simulation.CreationBreakdown, f func(simulation.CreationBreakdown) time.Duration) time.Duration {
	if len(bds) == 0 {
		return 0
	}
	vals := make([]time.Duration, len(bds))
	for i, b := range bds {
		vals[i] = f(b)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runFig2 reproduces Figure 2: Lambda end-to-end latency distributions for
// increasing cold-start bursts.
func runFig2(w io.Writer, scale float64) error {
	bursts := []int{1, 25, 100, 400, 800, 1600}
	t := newTable("burst", "p10_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms")
	for _, burst := range bursts {
		b := scaleInt(burst, scale, 1)
		eng := simulation.NewEngine()
		model := simulation.NewLambda(eng, simulation.LambdaConfig{Seed: 2})
		col := simulation.RunColdBurst(eng, model, b)
		h := col.E2E()
		t.addRow(b, h.Percentile(10), h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Max())
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: the whole CDF shifts right and the tail fattens as the burst grows")
	fmt.Fprintln(w, "# (sub-second median at burst 1, multi-second tail at burst 1600).")
	return nil
}

type sweepSystem struct {
	name    string
	make    func(eng *simulation.Engine) simulation.Model
	maxRate float64 // skip rates far beyond saturation to bound runtime
}

func coldSweepSystems() []sweepSystem {
	return []sweepSystem{
		{"knative", func(e *simulation.Engine) simulation.Model {
			return simulation.NewKnative(e, simulation.KnativeConfig{Seed: 1})
		}, 16},
		{"knative-k3s", func(e *simulation.Engine) simulation.Model {
			return simulation.NewKnative(e, simulation.KnativeConfig{Fused: true, Seed: 1})
		}, 16},
		{"openwhisk", func(e *simulation.Engine) simulation.Model {
			return simulation.NewKnative(e, simulation.KnativeConfig{OpenWhisk: true, Seed: 1})
		}, 16},
		{"dirigent-containerd", func(e *simulation.Engine) simulation.Model {
			return simulation.NewDirigent(e, simulation.DirigentConfig{Runtime: "containerd", Seed: 1})
		}, 3000},
		{"dirigent-firecracker", func(e *simulation.Engine) simulation.Model {
			return simulation.NewDirigent(e, simulation.DirigentConfig{Runtime: "firecracker", Seed: 1})
		}, 3000},
		{"dirigent-persist-all", func(e *simulation.Engine) simulation.Model {
			return simulation.NewDirigent(e, simulation.DirigentConfig{Runtime: "firecracker", PersistSandboxState: true, Seed: 1})
		}, 3000},
	}
}

// runFig7 reproduces Figure 7 (the cold-start rate sweep) together with
// the §5.2.1 ablations (persist-everything and K3s-fused Knative).
func runFig7(w io.Writer, scale float64) error {
	rates := []float64{1, 2, 5, 10, 100, 500, 1000, 1750, 2000, 2500, 3000}
	duration := time.Duration(float64(20*time.Second) * scale)
	if duration < 2*time.Second {
		duration = 2 * time.Second
	}
	t := newTable("system", "rate_per_s", "n", "p50_ms", "p99_ms")
	for _, sys := range coldSweepSystems() {
		for _, rate := range rates {
			if rate > sys.maxRate {
				continue
			}
			eng := simulation.NewEngine()
			m := sys.make(eng)
			col := simulation.RunColdRateSweep(eng, m, rate, duration)
			h := col.E2E()
			t.addRow(sys.name, rate, h.Count(), h.Percentile(50), h.Percentile(99))
		}
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: Knative/OpenWhisk saturate near 2 cold starts/s;")
	fmt.Fprintln(w, "# K3s fusing helps only marginally; persist-all caps near 1000/s;")
	fmt.Fprintln(w, "# Dirigent-containerd saturates ~1750/s (worker kernel locks);")
	fmt.Fprintln(w, "# Dirigent-firecracker reaches ~2500/s (control plane bound).")
	return nil
}

// runFig8 reproduces Figure 8 (the warm-start rate sweep).
func runFig8(w io.Writer, scale float64) error {
	rates := []float64{10, 100, 500, 1000, 1200, 2000, 4000, 5000}
	duration := time.Duration(float64(10*time.Second) * scale)
	if duration < 2*time.Second {
		duration = 2 * time.Second
	}
	systems := []sweepSystem{
		{"dirigent", func(e *simulation.Engine) simulation.Model {
			return simulation.NewDirigent(e, simulation.DirigentConfig{Runtime: "firecracker", Seed: 1})
		}, 5000},
		{"knative", func(e *simulation.Engine) simulation.Model {
			return simulation.NewKnative(e, simulation.KnativeConfig{Seed: 1})
		}, 5000},
		{"openwhisk", func(e *simulation.Engine) simulation.Model {
			return simulation.NewKnative(e, simulation.KnativeConfig{OpenWhisk: true, Seed: 1})
		}, 5000},
	}
	t := newTable("system", "rate_per_s", "n", "p50_ms", "p99_ms")
	for _, sys := range systems {
		for _, rate := range rates {
			eng := simulation.NewEngine()
			m := sys.make(eng)
			col := simulation.RunWarmRateSweep(eng, m, rate, duration)
			h := col.E2E()
			t.addRow(sys.name, rate, h.Count(), h.Percentile(50), h.Percentile(99))
		}
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: Dirigent ~1.4-2.5ms p50 sustained to ~4000/s;")
	fmt.Fprintln(w, "# Knative ~7ms p50 saturating ~1200/s; OpenWhisk higher latency, earlier saturation.")
	return nil
}

// runScalability reproduces §5.2.3: Dirigent's peak cold-start throughput
// as the worker count grows (with 40 ms emulated creations, as the paper
// does beyond its physical 93 nodes).
func runScalability(w io.Writer, scale float64) error {
	workerCounts := []int{93, 500, 1000, 2500, 5000}
	duration := time.Duration(float64(15*time.Second) * scale)
	if duration < 2*time.Second {
		duration = 2 * time.Second
	}
	t := newTable("workers", "offered_rate", "n", "p50_ms", "p99_ms", "saturated")
	for _, workers := range workerCounts {
		for _, rate := range []float64{2000, 2500} {
			eng := simulation.NewEngine()
			m := simulation.NewDirigent(eng, simulation.DirigentConfig{
				Workers: workers,
				Runtime: "firecracker",
				Seed:    1,
			})
			col := simulation.RunColdRateSweep(eng, m, rate, duration)
			h := col.E2E()
			saturated := "no"
			if h.Percentile(99) > 1000 {
				saturated = "yes"
			}
			t.addRow(workers, rate, h.Count(), h.Percentile(50), h.Percentile(99), saturated)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: throughput/latency flat up to 2500 workers; at 5000 workers")
	fmt.Fprintln(w, "# heartbeat-structure contention degrades peak throughput to ~2000/s.")
	return nil
}

// runRegistration reproduces §5.2.4: per-function registration latency and
// the time to register 1000 functions.
func runRegistration(w io.Writer, scale float64) error {
	n := scaleInt(1000, scale, 10)

	// Knative: modeled per-registration cost grows with cluster content.
	eng := simulation.NewEngine()
	kn := simulation.NewKnative(eng, simulation.KnativeConfig{Seed: 1})
	var knTotal time.Duration
	var knFirst, knLast time.Duration
	for i := 0; i < n; i++ {
		c := kn.RegistrationCost(i)
		if i == 0 {
			knFirst = c
		}
		knLast = c
		knTotal += c
	}

	// Dirigent: measured on the live in-process cluster — registration is
	// a single persisted write plus a metadata push to data planes.
	dirFirst, dirMean, dirLast, dirTotal, err := measureDirigentRegistration(n)
	if err != nil {
		return err
	}

	t := newTable("system", "functions", "first_ms", "mean_ms", "last_ms", "total")
	t.addRow("knative", n, ms(knFirst), ms(knTotal/time.Duration(n)), ms(knLast), knTotal.Round(time.Second).String())
	t.addRow("dirigent", n, dirFirst, dirMean, dirLast, dirTotal.Round(time.Millisecond).String())
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: Knative ~770ms/function growing with cluster content (~18min for 1000);")
	fmt.Fprintln(w, "# Dirigent ~2ms/function (~1s for 1000): persist spec + push metadata, nothing else.")
	return nil
}
