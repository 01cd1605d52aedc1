package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

func init() {
	register(Experiment{
		ID:    "coldstart",
		Title: "Cold-start pipeline sweep: batched creates + coalesced fan-out, with and without the pre-warm pool",
		Run:   runColdStart,
	})
}

// ColdStartConfig parameterizes one burst scale-up measurement on a live
// in-process cluster: Burst cold starts land in a single autoscale sweep
// across Workers nodes.
type ColdStartConfig struct {
	// Workers is the number of worker nodes (default 4).
	Workers int
	// Burst is how many sandboxes one sweep must bring up (default 64).
	Burst int
	// Prewarm is the per-worker pre-warm pool size (0 = disabled).
	Prewarm int
	// LatencyScale scales the simulated containerd latencies, like
	// sandbox.Config: 0 makes runtime work instantaneous (useful in
	// tests); the bench and the coldstart experiment pass 0.02,
	// compressing sandbox creation ~50x like the live experiments.
	LatencyScale float64
	// Seed seeds the runtime latency models.
	Seed int64
}

func (c ColdStartConfig) withDefaults() ColdStartConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Burst <= 0 {
		c.Burst = 64
	}
	if c.LatencyScale < 0 {
		c.LatencyScale = 0
	}
	return c
}

// ColdStartHarness is a live in-process cluster (control plane, one data
// plane, N workers over the in-proc transport) for burst cold-start
// measurements. The autoscale loop is parked; RunBurst drives sweeps
// explicitly so time-to-all-ready excludes ticker phase noise.
type ColdStartHarness struct {
	cfg     ColdStartConfig
	tr      *transport.InProc
	cp      *controlplane.ControlPlane
	dp      *dataplane.DataPlane
	workers []*worker.Worker
	db      *store.Store
	seq     int
}

// NewColdStartHarness builds and starts the cluster.
func NewColdStartHarness(cfg ColdStartConfig) (*ColdStartHarness, error) {
	cfg = cfg.withDefaults()
	h := &ColdStartHarness{cfg: cfg, tr: transport.NewInProc(), db: store.NewMemory()}
	h.cp = controlplane.New(controlplane.Config{
		Addr:      "coldstart-cp",
		Transport: h.tr,
		DB:        h.db,
		// Sweeps are driven explicitly via RunBurst.
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := h.cp.Start(); err != nil {
		return nil, err
	}
	h.dp = dataplane.New(dataplane.Config{
		ID:             1,
		Addr:           "coldstart-dp:8000",
		Transport:      h.tr,
		ControlPlanes:  []string{"coldstart-cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   30 * time.Second,
	})
	if err := h.dp.Start(); err != nil {
		h.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		addr := fmt.Sprintf("10.9.0.%d:9000", i+1)
		w := worker.New(worker.Config{
			Node: core.WorkerNode{
				ID: core.NodeID(i + 1), Name: fmt.Sprintf("cs-w%d", i+1),
				IP: fmt.Sprintf("10.9.0.%d", i+1), Port: 9000,
				CPUMilli: 1 << 20, MemoryMB: 1 << 20,
			},
			Addr: addr,
			Runtime: sandbox.NewContainerd(sandbox.Config{
				LatencyScale: cfg.LatencyScale,
				NodeIP:       [4]byte{10, 9, 0, byte(i + 1)},
				Seed:         cfg.Seed + int64(i),
			}),
			Transport:         h.tr,
			ControlPlanes:     []string{"coldstart-cp"},
			HeartbeatInterval: 20 * time.Millisecond,
			Prewarm:           cfg.Prewarm,
		})
		if err := w.Start(); err != nil {
			h.Close()
			return nil, err
		}
		h.workers = append(h.workers, w)
	}
	if err := h.AwaitPrewarm(30 * time.Second); err != nil {
		h.Close()
		return nil, err
	}
	if err := h.warmImageCaches(); err != nil {
		h.Close()
		return nil, err
	}
	// Separate warm-up from measurement: the warm-up sweep's samples
	// would otherwise skew the reported batch sizes and scheduling
	// latencies at low iteration counts.
	m := h.cp.Metrics()
	for _, name := range []string{"cold_start_sched_ms", "create_batch_size", "endpoint_fanout_batch_size", "sandbox_ready_ms"} {
		m.Histogram(name).Reset()
	}
	return h, nil
}

// warmImageCaches runs one throwaway burst sized to put the benchmark
// image on every node, so measured bursts compare scheduling pipelines
// rather than first-pull luck.
func (h *ColdStartHarness) warmImageCaches() error {
	// A runtime spec no node matches bypasses the pre-warm pool, forcing
	// real creations that pull the image onto every node.
	fn := core.Function{
		Name: "cache-warm", Image: "img", Port: 8080, Runtime: "warmup-bypass-prewarm",
		Scaling: core.DefaultScalingConfig(),
	}
	fn.Scaling.MinScale = h.cfg.Workers * 2
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := h.tr.Call(ctx, "coldstart-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		return err
	}
	h.cp.Reconcile()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if ready, _ := h.cp.FunctionScale("cache-warm"); ready >= fn.Scaling.MinScale {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coldstart: image cache warm-up stuck")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := h.tr.Call(ctx, "coldstart-cp", proto.MethodDeregisterFunction, core.MarshalFunction(&fn)); err != nil {
		return err
	}
	for {
		total := 0
		for _, w := range h.workers {
			total += w.SandboxCount()
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coldstart: warm-up sandboxes never drained")
		}
		time.Sleep(time.Millisecond)
	}
	return h.AwaitPrewarm(30 * time.Second)
}

// AwaitPrewarm blocks until every worker's pre-warm pool is full (no-op
// when pre-warming is disabled).
func (h *ColdStartHarness) AwaitPrewarm(timeout time.Duration) error {
	if h.cfg.Prewarm == 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		full := true
		for _, w := range h.workers {
			if w.Metrics().Gauge("prewarm_pool_size").Value() < int64(h.cfg.Prewarm) {
				full = false
				break
			}
		}
		if full {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coldstart: prewarm pools never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// RunBurst registers a fresh function pinned to Burst replicas, drives
// one autoscale sweep, and returns the time until every replica is
// ready. The function is torn down afterwards so bursts can repeat.
func (h *ColdStartHarness) RunBurst() (time.Duration, error) {
	h.seq++
	name := fmt.Sprintf("burst-%d", h.seq)
	fn := core.Function{
		Name: name, Image: "img", Port: 8080, Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	fn.Scaling.MinScale = h.cfg.Burst
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := h.tr.Call(ctx, "coldstart-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		return 0, err
	}

	start := time.Now()
	h.cp.Reconcile()
	deadline := start.Add(60 * time.Second)
	for {
		if ready, _ := h.cp.FunctionScale(name); ready >= h.cfg.Burst {
			break
		}
		if time.Now().After(deadline) {
			ready, creating := h.cp.FunctionScale(name)
			return 0, fmt.Errorf("coldstart: burst %s stuck at ready=%d creating=%d", name, ready, creating)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)

	// Tear the burst down and wait for the workers to drain and the
	// pre-warm pools to refill, so back-to-back bursts are comparable.
	if _, err := h.tr.Call(ctx, "coldstart-cp", proto.MethodDeregisterFunction, core.MarshalFunction(&fn)); err != nil {
		return 0, err
	}
	drainDeadline := time.Now().Add(60 * time.Second)
	for {
		total := 0
		for _, w := range h.workers {
			total += w.SandboxCount()
		}
		if total == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			return 0, fmt.Errorf("coldstart: %d sandboxes never drained", total)
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.AwaitPrewarm(30 * time.Second); err != nil {
		return 0, err
	}
	return elapsed, nil
}

// PrewarmHits sums prewarm_hits across workers.
func (h *ColdStartHarness) PrewarmHits() int64 {
	var n int64
	for _, w := range h.workers {
		n += w.Metrics().Counter("prewarm_hits").Value()
	}
	return n
}

// CP exposes the control plane (telemetry assertions in benchmarks).
func (h *ColdStartHarness) CP() *controlplane.ControlPlane { return h.cp }

// Close tears the cluster down.
func (h *ColdStartHarness) Close() {
	for _, w := range h.workers {
		w.Stop()
	}
	if h.dp != nil {
		h.dp.Stop()
	}
	if h.cp != nil {
		h.cp.Stop()
	}
	if h.db != nil {
		h.db.Close()
	}
}

// runColdStart sweeps burst sizes across the two cold-start pipeline
// configurations and reports time-to-all-ready plus the batching and
// pre-warm telemetry that explains it.
func runColdStart(w io.Writer, scale float64) error {
	bursts := []int{16, 64, 128}
	if scale < 1 {
		bursts = []int{scaleInt(16, scale, 4), scaleInt(64, scale, 8)}
	}
	configs := []struct {
		name    string
		prewarm func(burst, workers int) int
	}{
		{"batched", func(int, int) int { return 0 }},
		// Pool slack over the even share covers placement skew.
		{"batched+prewarm", func(burst, workers int) int { return (burst+workers-1)/workers + 2 }},
	}
	const workers = 4
	t := newTable("config", "burst", "time_to_ready_ms", "sched_p99_ms", "create_batch_p50", "fanout_p50", "prewarm_hits")
	for _, cfg := range configs {
		for _, burst := range bursts {
			h, err := NewColdStartHarness(ColdStartConfig{
				Workers:      workers,
				Burst:        burst,
				Prewarm:      cfg.prewarm(burst, workers),
				LatencyScale: 0.02,
				Seed:         int64(burst),
			})
			if err != nil {
				return err
			}
			elapsed, err := h.RunBurst()
			if err != nil {
				h.Close()
				return err
			}
			m := h.cp.Metrics()
			t.addRow(
				cfg.name,
				burst,
				float64(elapsed)/float64(time.Millisecond),
				m.Histogram("cold_start_sched_ms").Percentile(99),
				m.Histogram("create_batch_size").Percentile(50),
				m.Histogram("endpoint_fanout_batch_size").Percentile(50),
				int(h.PrewarmHits()),
			)
			h.Close()
		}
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: create_batch_p50 ~burst/workers; batched+prewarm skips runtime")
	fmt.Fprintln(w, "# init entirely and wins time-to-all-ready.")
	return nil
}
