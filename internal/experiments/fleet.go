package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/fleet"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

func init() {
	register(Experiment{
		ID:    "fleet",
		Title: "Paper-scale fleet sweep at 1k/2.5k/5k workers — registration storms, CP liveness RPC rates, health-sweep cost, a 256-sandbox cold burst and correlated-failure detection (paper §5.2.3)",
		Run:   runFleet,
	})
}

// FleetConfig parameterizes one emulated-fleet measurement: Workers
// in-process worker emulations against one control plane.
type FleetConfig struct {
	// Workers is the fleet size (default 256).
	Workers int
	// HeartbeatInterval paces each worker's liveness loop (default
	// 100 ms; pass a very large value to park the loops and drive
	// heartbeats explicitly, as the benchmarks do).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the CP's failure-detection threshold
	// (default 750 ms — comfortably above the heartbeat interval so
	// measurement phases never fail live workers spuriously).
	HeartbeatTimeout time.Duration
	// ReadyDelay simulates per-sandbox creation latency on the
	// emulated workers (default 0: readiness is immediate).
	ReadyDelay time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Workers <= 0 {
		c.Workers = 256
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 750 * time.Millisecond
	}
	return c
}

// FleetHarness is a live control plane plus an emulated worker fleet
// over the in-proc transport. The autoscale loop is parked (sweeps are
// driven explicitly); the health loop runs on its normal period so
// correlated failures are detected the way a deployment would.
type FleetHarness struct {
	cfg FleetConfig
	tr  *transport.InProc
	cp  *controlplane.ControlPlane
	fl  *fleet.Fleet
	db  *store.Store
	seq int
}

// NewFleetHarness builds the control plane and the (not yet started)
// fleet; call RegisterFleet to run the registration storm.
func NewFleetHarness(cfg FleetConfig) (*FleetHarness, error) {
	cfg = cfg.withDefaults()
	h := &FleetHarness{cfg: cfg, tr: transport.NewInProc(), db: store.NewMemory()}
	h.cp = controlplane.New(controlplane.Config{
		Addr:              "fleet-cp",
		Transport:         h.tr,
		DB:                h.db,
		AutoscaleInterval: time.Hour, // sweeps driven explicitly
		HeartbeatTimeout:  cfg.HeartbeatTimeout,
	})
	if err := h.cp.Start(); err != nil {
		return nil, err
	}
	h.fl = fleet.New(fleet.Config{
		Size:              cfg.Workers,
		Transport:         h.tr,
		ControlPlanes:     []string{"fleet-cp"},
		HeartbeatInterval: cfg.HeartbeatInterval,
		ReadyDelay:        cfg.ReadyDelay,
	})
	return h, nil
}

// RegisterFleet starts every worker concurrently (the registration
// storm) and returns how long until the whole fleet is registered.
func (h *FleetHarness) RegisterFleet() (time.Duration, error) {
	start := time.Now()
	if err := h.fl.Start(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if got := h.cp.WorkerCount(); got != h.cfg.Workers {
		return 0, fmt.Errorf("fleet: registered %d of %d workers", got, h.cfg.Workers)
	}
	return elapsed, nil
}

// RegisterScaledFunction registers a function pinned to minScale
// replicas, drives one autoscale sweep and waits until every replica is
// ready on the emulated fleet. It returns the time from sweep to
// all-ready and leaves the function running, so later sweeps, worker
// failures and drains operate on a loaded cluster.
func (h *FleetHarness) RegisterScaledFunction(name string, minScale int) (time.Duration, error) {
	fn := scaledFunction(name, minScale)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := h.tr.Call(ctx, "fleet-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		return 0, err
	}
	start := time.Now()
	h.cp.Reconcile()
	deadline := start.Add(60 * time.Second)
	for {
		if ready, _ := h.cp.FunctionScale(name); ready >= minScale {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			ready, creating := h.cp.FunctionScale(name)
			return 0, fmt.Errorf("fleet: %s stuck at ready=%d creating=%d, want %d", name, ready, creating, minScale)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func scaledFunction(name string, minScale int) core.Function {
	fn := core.Function{Name: name, Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = minScale
	fn.Scaling.StableWindow = time.Hour
	return fn
}

// ScaleBurst registers a fresh function pinned to burst replicas and
// times it to all-ready as RegisterScaledFunction does, then tears the
// function down again and waits for the fleet to drain.
func (h *FleetHarness) ScaleBurst(burst int) (time.Duration, error) {
	h.seq++
	name := fmt.Sprintf("fleet-burst-%d", h.seq)
	elapsed, err := h.RegisterScaledFunction(name, burst)
	if err != nil {
		return 0, err
	}
	fn := scaledFunction(name, burst)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := h.tr.Call(ctx, "fleet-cp", proto.MethodDeregisterFunction, core.MarshalFunction(&fn)); err != nil {
		return 0, err
	}
	drainDeadline := time.Now().Add(60 * time.Second)
	for h.fl.SandboxCount() > 0 {
		if time.Now().After(drainDeadline) {
			return 0, fmt.Errorf("fleet: %d sandboxes never drained", h.fl.SandboxCount())
		}
		time.Sleep(time.Millisecond)
	}
	return elapsed, nil
}

// CorrelatedFailure crashes frac of the fleet at once and returns the
// time until the health monitor has failed every victim (heartbeat
// timeout + detection sweep + endpoint drain; the timeout is the floor).
func (h *FleetHarness) CorrelatedFailure(frac float64) (time.Duration, error) {
	start := time.Now()
	victims := h.fl.StopFraction(frac)
	want := h.cfg.Workers - len(victims)
	deadline := start.Add(h.cfg.HeartbeatTimeout + 60*time.Second)
	for h.cp.WorkerCount() > want {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("fleet: %d workers still healthy, want %d", h.cp.WorkerCount(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// CP exposes the control plane (telemetry assertions in benchmarks).
func (h *FleetHarness) CP() *controlplane.ControlPlane { return h.cp }

// Fleet exposes the emulated fleet.
func (h *FleetHarness) Fleet() *fleet.Fleet { return h.fl }

// Transport exposes the harness transport; the control plane listens on
// "fleet-cp".
func (h *FleetHarness) Transport() *transport.InProc { return h.tr }

// Close tears the cluster down.
func (h *FleetHarness) Close() {
	h.fl.Stop()
	h.cp.Stop()
	h.db.Close()
}

// fleetBenchRow is one row of BENCH_fleet.json: the fleet sweep's
// machine-readable output, committed so CI can diff liveness-path
// regressions across revisions.
type fleetBenchRow struct {
	Workers           int     `json:"workers"`
	RegStormMs        float64 `json:"reg_storm_ms"`
	CPLivenessRPCsSec float64 `json:"cp_liveness_rpcs_per_s"`
	HealthSweepP50Ms  float64 `json:"health_sweep_p50_ms"`
	Burst256Ms        float64 `json:"burst256_ms"`
	FailDetectMs      float64 `json:"fail_detect_ms"`
}

// runFleet sweeps the paper's fleet sizes (§5.2.3 runs the control plane
// against 5000 workers). Every worker registers and heartbeats the
// control plane directly. For each size it reports the registration
// storm, the steady-state CP liveness RPC rate and health-sweep cost
// (measured over a live window with every background loop running), the
// time to bring a 256-sandbox cold burst to ready while that liveness
// traffic runs, and the correlated-failure detection time. Results are
// also written to BENCH_fleet.json.
func runFleet(w io.Writer, scale float64) error {
	sizes := []int{scaleInt(1000, scale, 96), scaleInt(2500, scale, 160), scaleInt(5000, scale, 256)}
	// Long enough for ~8 health sweeps (187.5 ms period), so the p50 and
	// the RPC rate are steady-state.
	const window = 1500 * time.Millisecond
	const burst = 256
	t := newTable("workers", "reg_storm_ms", "cp_rpcs_per_s", "health_sweep_p50_ms", "burst256_ms", "fail_detect_ms")
	var rows []fleetBenchRow
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, size := range sizes {
		h, err := NewFleetHarness(FleetConfig{Workers: size})
		if err != nil {
			return err
		}
		reg, err := h.RegisterFleet()
		if err != nil {
			h.Close()
			return err
		}
		// Steady-state liveness window: worker heartbeat loops and the
		// CP health loop run on the wall clock; the counter's delta is
		// the CP's liveness RPC rate.
		m := h.CP().Metrics()
		m.Histogram("health_sweep_ms").Reset()
		base := m.Counter("worker_hb_rpcs").Value()
		time.Sleep(window)
		rpcsPerSec := float64(m.Counter("worker_hb_rpcs").Value()-base) / window.Seconds()
		sweepP50 := m.Histogram("health_sweep_ms").Percentile(50)
		burstTime, err := h.ScaleBurst(burst)
		if err != nil {
			h.Close()
			return err
		}
		fail, err := h.CorrelatedFailure(0.25)
		if err != nil {
			h.Close()
			return err
		}
		h.Close()
		row := fleetBenchRow{
			Workers:           size,
			RegStormMs:        ms(reg),
			CPLivenessRPCsSec: rpcsPerSec,
			HealthSweepP50Ms:  sweepP50,
			Burst256Ms:        ms(burstTime),
			FailDetectMs:      ms(fail),
		}
		t.addRow(size, row.RegStormMs, row.CPLivenessRPCsSec, row.HealthSweepP50Ms, row.Burst256Ms, row.FailDetectMs)
		rows = append(rows, row)
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: one CP RPC per worker per 100 ms (5k workers = 50k RPCs/s)")
	fmt.Fprintln(w, "# and a full-registry health scan per sweep. fail_detect_ms is floored by the")
	fmt.Fprintln(w, "# heartbeat timeout (750 ms) plus at most one sweep period (187.5 ms).")
	if data, err := json.MarshalIndent(rows, "", "  "); err == nil {
		if werr := os.WriteFile("BENCH_fleet.json", append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(w, "# warning: BENCH_fleet.json not written: %v\n", werr)
		} else {
			fmt.Fprintln(w, "# wrote BENCH_fleet.json")
		}
	}
	return nil
}
