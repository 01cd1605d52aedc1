package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/fleet"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

func init() {
	register(Experiment{
		ID:    "dataplane",
		Title: "Multi-data-plane sweep: replicas × kill fraction — front-end failover, CP fan-out pruning, async drain (paper §3.4.2, §5.1)",
		Run:   runDataPlane,
	})
}

// MultiDPConfig parameterizes one multi-data-plane measurement: a live
// control plane, Replicas data plane replicas with durable async
// queues, a small emulated worker fleet, and a front end whose
// membership syncs from the control plane.
type MultiDPConfig struct {
	// Replicas is the data plane replica count (default 3).
	Replicas int
	// Workers is the emulated worker fleet size (default 8).
	Workers int
	// Functions spreads traffic across this many rendezvous homes
	// (default 8).
	Functions int
}

func (c MultiDPConfig) withDefaults() MultiDPConfig {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Functions <= 0 {
		c.Functions = 8
	}
	return c
}

// MultiDPHarness is the live multi-replica cluster the dataplane
// experiment (and BenchmarkAblationMultiDP) drives.
type MultiDPHarness struct {
	cfg MultiDPConfig
	tr  *transport.InProc
	cp  *controlplane.ControlPlane
	dps *fleet.DataPlanes
	fl  *fleet.Fleet
	lb  *frontend.LB
	db  *store.Store
}

// NewMultiDPHarness builds and starts the cluster: control plane,
// replicas, worker fleet, pre-scaled functions, and a membership-synced
// front end.
func NewMultiDPHarness(cfg MultiDPConfig) (*MultiDPHarness, error) {
	cfg = cfg.withDefaults()
	h := &MultiDPHarness{cfg: cfg, tr: transport.NewInProc(), db: store.NewMemory()}
	h.cp = controlplane.New(controlplane.Config{
		Addr:              "mdp-cp",
		Transport:         h.tr,
		DB:                h.db,
		AutoscaleInterval: time.Hour, // sweeps driven explicitly
		HeartbeatTimeout:  400 * time.Millisecond,
		DataPlaneTimeout:  400 * time.Millisecond,
	})
	if err := h.cp.Start(); err != nil {
		return nil, err
	}
	h.dps = fleet.NewDataPlanes(fleet.DataPlanesConfig{
		Count:             cfg.Replicas,
		Transport:         h.tr,
		ControlPlanes:     []string{"mdp-cp"},
		Persistent:        true,
		HeartbeatInterval: 50 * time.Millisecond,
		MetricInterval:    time.Hour, // scaling driven by explicit sweeps
		QueueTimeout:      20 * time.Second,
	})
	if err := h.dps.Start(); err != nil {
		h.Close()
		return nil, err
	}
	h.fl = fleet.New(fleet.Config{
		Size:              cfg.Workers,
		Transport:         h.tr,
		ControlPlanes:     []string{"mdp-cp"},
		HeartbeatInterval: 100 * time.Millisecond,
	})
	if err := h.fl.Start(); err != nil {
		h.Close()
		return nil, err
	}
	h.lb = frontend.New(frontend.Config{
		Transport:          h.tr,
		ControlPlanes:      []string{"mdp-cp"},
		MembershipInterval: 50 * time.Millisecond,
		FailureCooldown:    100 * time.Millisecond,
	})
	if err := h.lb.Start(); err != nil {
		h.Close()
		return nil, err
	}
	// Pre-scale the functions so the measured phases ride warm paths.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < cfg.Functions; i++ {
		fn := core.Function{Name: h.fnName(i), Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
		fn.Scaling.MinScale = 1
		fn.Scaling.StableWindow = time.Hour
		if _, err := h.tr.Call(ctx, "mdp-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			h.Close()
			return nil, err
		}
	}
	h.cp.Reconcile()
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; i < cfg.Functions; i++ {
		for {
			if ready, _ := h.cp.FunctionScale(h.fnName(i)); ready >= 1 {
				break
			}
			if time.Now().After(deadline) {
				h.Close()
				return nil, fmt.Errorf("multidp: %s never scaled", h.fnName(i))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return h, nil
}

func (h *MultiDPHarness) fnName(i int) string {
	return fmt.Sprintf("mdp-fn-%d", i%h.cfg.Functions)
}

// SyncBurst drives n synchronous invocations through the front end, all
// concurrent, killing killFrac of the replica set once half have been
// launched. It returns completions, failures, and front-end failovers
// observed during the burst.
func (h *MultiDPHarness) SyncBurst(n int, killFrac float64) (ok, failed int, failovers int64, elapsed time.Duration) {
	failoverBase := h.lb.Metrics().Counter("dataplane_failovers").Value()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var okCount, failCount atomic.Int64
	launched := make(chan struct{})
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == n/2 {
				close(launched)
			}
			if _, err := h.lb.Invoke(ctx, &proto.InvokeRequest{Function: h.fnName(i)}); err != nil {
				failCount.Add(1)
				return
			}
			okCount.Add(1)
		}(i)
	}
	if killFrac > 0 {
		<-launched
		h.dps.StopFraction(killFrac)
	}
	wg.Wait()
	elapsed = time.Since(start)
	failovers = h.lb.Metrics().Counter("dataplane_failovers").Value() - failoverBase
	return int(okCount.Load()), int(failCount.Load()), failovers, elapsed
}

// AwaitPrune blocks until the control plane's live replica set matches
// want, returning how long detection took from now.
func (h *MultiDPHarness) AwaitPrune(want int, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	for h.cp.DataPlaneCount() != want {
		if time.Since(start) > timeout {
			return 0, fmt.Errorf("multidp: live replicas = %d, want %d", h.cp.DataPlaneCount(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// AsyncFlood submits n asynchronous invocations through the front end
// and waits until every accepted task completes and settles on the live
// replicas. It returns (accepted, drain time).
func (h *MultiDPHarness) AsyncFlood(n int) (int, time.Duration, error) {
	live := h.liveDPs()
	var base int64
	for _, dp := range live {
		base += dp.Metrics().Counter("async_completed").Value()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	accepted := 0
	for i := 0; i < n; i++ {
		if _, err := h.lb.Invoke(ctx, &proto.InvokeRequest{Function: h.fnName(i), Async: true}); err == nil {
			accepted++
		}
	}
	start := time.Now()
	for {
		var completed int64
		pending := 0
		for _, dp := range live {
			completed += dp.Metrics().Counter("async_completed").Value()
			pending += dp.PendingAsync()
		}
		if completed-base >= int64(accepted) && pending == 0 {
			return accepted, time.Since(start), nil
		}
		if time.Since(start) > 60*time.Second {
			return accepted, 0, fmt.Errorf("multidp: async flood stuck: completed=%d/%d pending=%d",
				completed-base, accepted, pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveDPs returns the replicas still serving (Stop leaves dead ones in
// the slice; membership decides, so ask the front end's view).
func (h *MultiDPHarness) liveDPs() []*dataplane.DataPlane {
	liveAddrs := make(map[string]bool)
	for _, addr := range h.lb.Replicas() {
		liveAddrs[addr] = true
	}
	var out []*dataplane.DataPlane
	for _, dp := range h.dps.DPs() {
		if liveAddrs[dp.Addr()] {
			out = append(out, dp)
		}
	}
	return out
}

// CP exposes the control plane.
func (h *MultiDPHarness) CP() *controlplane.ControlPlane { return h.cp }

// LB exposes the front end.
func (h *MultiDPHarness) LB() *frontend.LB { return h.lb }

// DataPlanes exposes the replica set.
func (h *MultiDPHarness) DataPlanes() *fleet.DataPlanes { return h.dps }

// Close tears the cluster down.
func (h *MultiDPHarness) Close() {
	if h.lb != nil {
		h.lb.Stop()
	}
	if h.fl != nil {
		h.fl.Stop()
	}
	if h.dps != nil {
		h.dps.Stop()
	}
	if h.cp != nil {
		h.cp.Stop()
	}
	if h.db != nil {
		h.db.Close()
	}
}

// runDataPlane sweeps replica counts × kill fractions through a sync
// burst, fan-out prune detection, and an async drain, reporting the
// failover and pruning behavior of the dynamic DP tier.
func runDataPlane(w io.Writer, scale float64) error {
	burst := scaleInt(256, scale, 32)
	asyncN := scaleInt(128, scale, 16)
	t := newTable("replicas", "kill_frac", "sync_ok", "sync_fail", "failovers",
		"sync_ms", "prune_ms", "async_n", "async_drain_ms")
	for _, replicas := range []int{2, 4} {
		for _, killFrac := range []float64{0, 1 / float64(replicas)} {
			h, err := NewMultiDPHarness(MultiDPConfig{Replicas: replicas})
			if err != nil {
				return err
			}
			ok, failedN, failovers, syncMs := h.SyncBurst(burst, killFrac)
			pruneMs := time.Duration(0)
			if killFrac > 0 {
				killed := int(float64(replicas)*killFrac + 0.999999)
				pruneMs, err = h.AwaitPrune(replicas-killed, 30*time.Second)
				if err != nil {
					h.Close()
					return err
				}
			}
			accepted, drainMs, err := h.AsyncFlood(asyncN)
			if err != nil {
				h.Close()
				return err
			}
			t.addRow(
				replicas,
				fmt.Sprintf("%.2f", killFrac),
				ok,
				failedN,
				int(failovers),
				float64(syncMs)/float64(time.Millisecond),
				float64(pruneMs)/float64(time.Millisecond),
				accepted,
				float64(drainMs)/float64(time.Millisecond),
			)
			h.Close()
		}
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: sync_fail stays 0 at every kill fraction (accepted invocations")
	fmt.Fprintln(w, "# fail over to survivors); prune_ms ≈ DataPlaneTimeout + one sweep.")
	return nil
}
