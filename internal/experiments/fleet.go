package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
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
		Title: "Paper-scale fleet sweep: direct vs relayed liveness at 1k/2.5k/5k workers — registration storms, CP liveness RPC rates, health-sweep cost and correlated-failure detection (paper §5.2.3)",
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
	// HeartbeatRound explicitly, as the benchmarks do).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the CP's failure-detection threshold
	// (default 750 ms — comfortably above the heartbeat interval so
	// measurement phases never fail live workers spuriously).
	HeartbeatTimeout time.Duration
	// ReadyDelay simulates per-sandbox creation latency on the
	// emulated workers (default 0: readiness is immediate).
	ReadyDelay time.Duration
	// Relays, when > 0, stands up a relay tier of this many relays
	// between the emulated workers and the control plane: liveness
	// traffic arrives at the CP as aggregated batches. 0 keeps the
	// seed's direct per-worker protocol (the -relay off ablation).
	Relays int
	// RelayFlush is each relay's batching period (default 100 ms —
	// one CP RPC per relay per worker-heartbeat interval).
	RelayFlush time.Duration
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
	cfg    FleetConfig
	tr     *transport.InProc
	cp     *controlplane.ControlPlane
	fl     *fleet.Fleet
	relays *fleet.Relays // nil in direct mode
	db     *store.Store
	seq    int
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
	var relayAddrs []string
	if cfg.Relays > 0 {
		h.relays = fleet.NewRelays(fleet.RelaysConfig{
			Count:         cfg.Relays,
			Transport:     h.tr,
			ControlPlanes: []string{"fleet-cp"},
			FlushInterval: cfg.RelayFlush,
		})
		if err := h.relays.Start(); err != nil {
			h.cp.Stop()
			return nil, err
		}
		relayAddrs = h.relays.Addrs()
	}
	h.fl = fleet.New(fleet.Config{
		Size:              cfg.Workers,
		Transport:         h.tr,
		ControlPlanes:     []string{"fleet-cp"},
		Relays:            relayAddrs,
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

// HeartbeatRound drives one explicit heartbeat from every worker,
// spread across the given number of goroutines, and returns the wall
// time for the round. With G well above the core count the round
// approximates the arrival concurrency of a real fleet's heartbeats.
func (h *FleetHarness) HeartbeatRound(goroutines int) time.Duration {
	workers := h.fl.Workers()
	if goroutines <= 0 {
		goroutines = 16
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(workers); i += goroutines {
				workers[i].SendHeartbeat()
			}
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// RegisterScaledFunction registers a function pinned to minScale
// replicas and waits until they are all ready — and leaves it running,
// so subsequent sweeps, worker failures and drains operate on a loaded
// cluster (ScaleBurst, by contrast, tears its function down again).
func (h *FleetHarness) RegisterScaledFunction(name string, minScale int) error {
	fn := core.Function{Name: name, Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = minScale
	fn.Scaling.StableWindow = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := h.tr.Call(ctx, "fleet-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		return err
	}
	h.cp.Reconcile()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if ready, _ := h.cp.FunctionScale(name); ready >= minScale {
			return nil
		}
		if time.Now().After(deadline) {
			ready, creating := h.cp.FunctionScale(name)
			return fmt.Errorf("fleet: %s stuck at ready=%d creating=%d, want %d", name, ready, creating, minScale)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// ScaleBurst registers a fresh function pinned to burst replicas,
// drives one autoscale sweep, waits until every replica is ready on the
// emulated fleet, then tears the function down again. It returns the
// time from sweep to all-ready.
func (h *FleetHarness) ScaleBurst(burst int) (time.Duration, error) {
	h.seq++
	name := fmt.Sprintf("fleet-burst-%d", h.seq)
	fn := core.Function{Name: name, Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = burst
	fn.Scaling.StableWindow = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := h.tr.Call(ctx, "fleet-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		return 0, err
	}
	start := time.Now()
	h.cp.Reconcile()
	deadline := start.Add(60 * time.Second)
	for {
		if ready, _ := h.cp.FunctionScale(name); ready >= burst {
			break
		}
		if time.Now().After(deadline) {
			ready, creating := h.cp.FunctionScale(name)
			return 0, fmt.Errorf("fleet: burst %s stuck at ready=%d creating=%d", name, ready, creating)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
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

// Relays exposes the relay tier (nil in direct mode).
func (h *FleetHarness) Relays() *fleet.Relays { return h.relays }

// FlushRelays drives one explicit flush on every relay; harnesses that
// park the relay flush loops call it once per emulated heartbeat period.
func (h *FleetHarness) FlushRelays() {
	if h.relays != nil {
		h.relays.FlushAll()
	}
}

// Close tears the cluster down.
func (h *FleetHarness) Close() {
	h.fl.Stop()
	if h.relays != nil {
		h.relays.Stop()
	}
	h.cp.Stop()
	h.db.Close()
}

// fleetBenchRow is one row of BENCH_fleet.json: the fleet sweep's
// machine-readable output, committed so CI can diff liveness-path
// regressions across revisions.
type fleetBenchRow struct {
	Mode              string  `json:"mode"`
	Workers           int     `json:"workers"`
	Relays            int     `json:"relays"`
	RegStormMs        float64 `json:"reg_storm_ms"`
	CPLivenessRPCsSec float64 `json:"cp_liveness_rpcs_per_s"`
	HBBatchP50        float64 `json:"heartbeat_batch_p50"`
	HealthSweepP50Ms  float64 `json:"health_sweep_p50_ms"`
	FailDetectMs      float64 `json:"fail_detect_ms"`
}

// runFleet sweeps the paper's fleet sizes (§5.2.3 runs the control plane
// against 5000 workers) across the liveness-path ablation: the seed's
// direct per-worker protocol vs a 16-relay tier batching heartbeats and
// registrations. For each arm it reports the registration storm, the
// steady-state CP liveness RPC rate and health-sweep cost (measured over
// a live window with every background loop running), and the
// correlated-failure detection time — the relay win is valid only if
// detection latency holds. Results are also written to BENCH_fleet.json.
func runFleet(w io.Writer, scale float64) error {
	sizes := []int{scaleInt(1000, scale, 96), scaleInt(2500, scale, 160), scaleInt(5000, scale, 256)}
	modes := []struct {
		name   string
		relays int
	}{
		{"direct (-relay off)", 0},
		{"relay (16 relays)", 16},
	}
	// Long enough for ~8 health sweeps (187.5 ms period) and hundreds of
	// relay flushes, so the p50s and the RPC rate are steady-state.
	const window = 1500 * time.Millisecond
	t := newTable("mode", "workers", "reg_storm_ms", "cp_rpcs_per_s", "hb_batch_p50",
		"health_sweep_p50_ms", "fail_detect_ms")
	var rows []fleetBenchRow
	for _, mode := range modes {
		for _, size := range sizes {
			h, err := NewFleetHarness(FleetConfig{Workers: size, Relays: mode.relays})
			if err != nil {
				return err
			}
			regMs, err := h.RegisterFleet()
			if err != nil {
				h.Close()
				return err
			}
			// Steady-state liveness window: worker heartbeat loops, relay
			// flush loops and the CP health loop all run on the wall
			// clock; the counters' delta is the CP's liveness RPC rate.
			m := h.CP().Metrics()
			m.Histogram("health_sweep_ms").Reset()
			base := m.Counter("worker_hb_rpcs").Value() + m.Counter("worker_hb_batch_rpcs").Value()
			time.Sleep(window)
			delta := m.Counter("worker_hb_rpcs").Value() + m.Counter("worker_hb_batch_rpcs").Value() - base
			rpcsPerSec := float64(delta) / window.Seconds()
			sweepP50 := m.Histogram("health_sweep_ms").Percentile(50)
			batchP50 := m.Histogram("heartbeat_batch_size").Percentile(50)
			failMs, err := h.CorrelatedFailure(0.25)
			if err != nil {
				h.Close()
				return err
			}
			t.addRow(
				mode.name,
				size,
				float64(regMs)/float64(time.Millisecond),
				rpcsPerSec,
				batchP50,
				sweepP50,
				float64(failMs)/float64(time.Millisecond),
			)
			rows = append(rows, fleetBenchRow{
				Mode:              map[bool]string{true: "relay", false: "direct"}[mode.relays > 0],
				Workers:           size,
				Relays:            mode.relays,
				RegStormMs:        float64(regMs) / float64(time.Millisecond),
				CPLivenessRPCsSec: rpcsPerSec,
				HBBatchP50:        batchP50,
				HealthSweepP50Ms:  sweepP50,
				FailDetectMs:      float64(failMs) / float64(time.Millisecond),
			})
			h.Close()
		}
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: direct mode costs one CP RPC per worker per 100 ms")
	fmt.Fprintln(w, "# (5k workers = 50k RPCs/s) and full-registry health scans; the relay tier")
	fmt.Fprintln(w, "# collapses that to ~10 batch RPCs/s per relay while fast sweeps touch only")
	fmt.Fprintln(w, "# relays + suspects. fail_detect_ms is floored by the heartbeat timeout")
	fmt.Fprintln(w, "# (750 ms) in both modes — the relay win must not cost detection latency.")
	if data, err := json.MarshalIndent(rows, "", "  "); err == nil {
		if werr := os.WriteFile("BENCH_fleet.json", append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(w, "# warning: BENCH_fleet.json not written: %v\n", werr)
		} else {
			fmt.Fprintln(w, "# wrote BENCH_fleet.json")
		}
	}
	return nil
}
