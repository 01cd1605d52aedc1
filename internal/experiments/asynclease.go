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
	"dirigent/internal/dataplane"
	"dirigent/internal/fleet"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

func init() {
	register(Experiment{
		ID:    "asynclease",
		Title: "Durable async queue failover sweep: replicas × kill fraction × revival timing, survivors drain a dead replica's records under a lease (paper §3.4.2)",
		Run:   runAsyncLease,
	})
}

// AsyncLeaseConfig parameterizes one lease-failover measurement: data
// plane replicas persisting async records into one shared store, a
// worker fleet with a fixed per-task service time, and a control plane
// that leases a pruned replica's records to survivors.
type AsyncLeaseConfig struct {
	// Replicas is the data plane replica count (default 3).
	Replicas int
	// Functions spreads the flood across this many functions (default 6).
	Functions int
	// HandlerDelay is the per-task service time (default 5ms) — long
	// enough that a kill lands on a non-empty backlog.
	HandlerDelay time.Duration
}

func (c AsyncLeaseConfig) withDefaults() AsyncLeaseConfig {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Functions <= 0 {
		c.Functions = 6
	}
	if c.HandlerDelay <= 0 {
		c.HandlerDelay = 5 * time.Millisecond
	}
	return c
}

// AsyncLeaseHarness is the live cluster the asynclease experiment (and
// BenchmarkAblationAsyncLease) drives.
type AsyncLeaseHarness struct {
	cfg    AsyncLeaseConfig
	tr     *transport.InProc
	cp     *controlplane.ControlPlane
	dps    *fleet.DataPlanes
	fl     *fleet.Fleet
	shared *store.Store
	cpDB   *store.Store

	mu       sync.Mutex
	lastDone map[string]time.Time
	done     map[string]int
}

// NewAsyncLeaseHarness builds and starts the cluster with every replica
// persisting async records into one shared store.
func NewAsyncLeaseHarness(cfg AsyncLeaseConfig) (*AsyncLeaseHarness, error) {
	cfg = cfg.withDefaults()
	h := &AsyncLeaseHarness{
		cfg:      cfg,
		tr:       transport.NewInProc(),
		shared:   store.NewMemory(),
		cpDB:     store.NewMemory(),
		lastDone: make(map[string]time.Time),
		done:     make(map[string]int),
	}
	h.cp = controlplane.New(controlplane.Config{
		Addr:              "al-cp",
		Transport:         h.tr,
		DB:                h.cpDB,
		AutoscaleInterval: time.Hour, // scaling driven explicitly
		HeartbeatTimeout:  400 * time.Millisecond,
		DataPlaneTimeout:  400 * time.Millisecond,
	})
	if err := h.cp.Start(); err != nil {
		return nil, err
	}
	h.dps = fleet.NewDataPlanes(fleet.DataPlanesConfig{
		Count:             cfg.Replicas,
		Transport:         h.tr,
		ControlPlanes:     []string{"al-cp"},
		SharedStore:       h.shared,
		HeartbeatInterval: 50 * time.Millisecond,
		MetricInterval:    time.Hour,
		QueueTimeout:      20 * time.Second,
	})
	if err := h.dps.Start(); err != nil {
		h.Close()
		return nil, err
	}
	h.fl = fleet.New(fleet.Config{
		Size:              8,
		Transport:         h.tr,
		ControlPlanes:     []string{"al-cp"},
		HeartbeatInterval: 100 * time.Millisecond,
		Handler: func(p []byte) ([]byte, error) {
			time.Sleep(cfg.HandlerDelay)
			h.mu.Lock()
			h.lastDone[string(p)] = time.Now()
			h.done[string(p)]++
			h.mu.Unlock()
			return p, nil
		},
	})
	if err := h.fl.Start(); err != nil {
		h.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < cfg.Functions; i++ {
		fn := core.Function{Name: h.fnName(i), Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
		fn.Scaling.MinScale = 1
		fn.Scaling.StableWindow = time.Hour
		if _, err := h.tr.Call(ctx, "al-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
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
				return nil, fmt.Errorf("asynclease: %s never scaled", h.fnName(i))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return h, nil
}

func (h *AsyncLeaseHarness) fnName(i int) string {
	return fmt.Sprintf("al-fn-%d", i%h.cfg.Functions)
}

// Flood accepts n async invocations spread round-robin across every
// replica, with half the traffic aimed at function 0 (the hot function —
// the skew the DRR dispatcher exists for) and the rest split across the
// others. Payloads carry the function name so the worker handler can
// attribute completions. Returns how many were acknowledged.
func (h *AsyncLeaseHarness) Flood(n int) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs := h.dps.Addrs()
	accepted := 0
	for i := 0; i < n; i++ {
		fn := h.fnName(0)
		if i%2 == 1 && h.cfg.Functions > 1 {
			fn = h.fnName(1 + (i/2)%(h.cfg.Functions-1))
		}
		req := proto.InvokeRequest{Function: fn, Async: true, Payload: []byte(fn)}
		if _, err := h.tr.Call(ctx, addrs[i%len(addrs)], proto.MethodInvoke, req.Marshal()); err != nil {
			return accepted, fmt.Errorf("asynclease: accept %d: %w", i, err)
		}
		accepted++
	}
	return accepted, nil
}

// Backlog is the number of acknowledged-but-unsettled records in the
// shared store.
func (h *AsyncLeaseHarness) Backlog() int { return dataplane.AsyncBacklog(h.shared) }

// KillFraction crashes the first ⌈frac·Replicas⌉ replicas and returns
// their indices.
func (h *AsyncLeaseHarness) KillFraction(frac float64) []int {
	return h.dps.StopFraction(frac)
}

// RestartVictims revives the given replicas (same IDs, same shared
// store), which recalls the lease on their records.
func (h *AsyncLeaseHarness) RestartVictims(victims []int) error {
	for _, i := range victims {
		if err := h.dps.Restart(i); err != nil {
			return err
		}
	}
	return nil
}

// AwaitDrain polls the shared backlog until it reaches zero or stops
// moving for a second, returning (time to empty, records left).
func (h *AsyncLeaseHarness) AwaitDrain(timeout time.Duration) (time.Duration, int) {
	start := time.Now()
	last, lastChange := h.Backlog(), time.Now()
	for time.Since(start) < timeout {
		b := h.Backlog()
		if b == 0 {
			return time.Since(start), 0
		}
		if b != last {
			last, lastChange = b, time.Now()
		} else if time.Since(lastChange) > time.Second {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(start), last
}

// FairnessRatio compares the hot function's drain completion time with
// the slowest co-resident function's, both measured from start. Under
// DRR the hot flood must not head-of-line block the others, so the ratio
// stays at or below ~1; a FIFO queue would push it well above.
func (h *AsyncLeaseHarness) FairnessRatio(start time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	hot := h.lastDone[h.fnName(0)]
	if hot.IsZero() {
		return 0
	}
	var coldMax time.Duration
	for i := 1; i < h.cfg.Functions; i++ {
		if t := h.lastDone[h.fnName(i)]; !t.IsZero() && t.Sub(start) > coldMax {
			coldMax = t.Sub(start)
		}
	}
	if coldMax <= 0 {
		return 0
	}
	return float64(coldMax) / float64(hot.Sub(start))
}

// CP exposes the control plane.
func (h *AsyncLeaseHarness) CP() *controlplane.ControlPlane { return h.cp }

// Close tears the cluster down.
func (h *AsyncLeaseHarness) Close() {
	if h.fl != nil {
		h.fl.Stop()
	}
	if h.dps != nil {
		h.dps.Stop()
	}
	if h.cp != nil {
		h.cp.Stop()
	}
	if h.cpDB != nil {
		h.cpDB.Close()
	}
	if h.shared != nil {
		h.shared.Close()
	}
}

type asyncLeaseBenchRow struct {
	Replicas      int     `json:"replicas"`
	KillFrac      float64 `json:"kill_frac"`
	Revival       string  `json:"revival"`
	Accepted      int     `json:"accepted"`
	BacklogAtKill int     `json:"backlog_at_kill"`
	Stranded      int     `json:"stranded"`
	DrainMs       float64 `json:"drain_ms"`
	Fairness      float64 `json:"fairness_ratio"`
	LeasesIssued  int64   `json:"leases_issued"`
	LeasesRecall  int64   `json:"leases_recalled"`
}

// runAsyncLease sweeps replica counts × kill fractions × revival timing,
// reporting the acknowledged backlog stranded
// by the kill, the time for the shared store to drain to zero, and the
// DRR fairness ratio. Rows land in BENCH_async.json.
func runAsyncLease(w io.Writer, scale float64) error {
	asyncN := scaleInt(240, scale, 36)
	type shape struct {
		replicas int
		killFrac float64
	}
	shapes := []shape{{2, 0.5}, {4, 0.25}, {4, 0.5}}
	t := newTable("replicas", "kill_frac", "revival", "accepted", "backlog_at_kill",
		"stranded", "drain_ms", "fairness")
	var rows []asyncLeaseBenchRow
	for _, s := range shapes {
		for _, revival := range []string{"none", "mid-drain"} {
			h, err := NewAsyncLeaseHarness(AsyncLeaseConfig{Replicas: s.replicas})
			if err != nil {
				return err
			}
			floodStart := time.Now()
			accepted, err := h.Flood(asyncN)
			if err != nil {
				h.Close()
				return err
			}
			victims := h.KillFraction(s.killFrac)
			killAt := time.Now()
			backlogAtKill := h.Backlog()
			if revival == "mid-drain" {
				// Past the prune (DataPlaneTimeout) and past the first
				// grants — the revival races the survivors' drains.
				time.Sleep(600 * time.Millisecond)
				if err := h.RestartVictims(victims); err != nil {
					h.Close()
					return err
				}
			}
			_, stranded := h.AwaitDrain(30 * time.Second)
			drainMs := float64(time.Since(killAt)) / float64(time.Millisecond)
			fairness := h.FairnessRatio(floodStart)
			t.addRow(s.replicas, fmt.Sprintf("%.2f", s.killFrac), revival,
				accepted, backlogAtKill, stranded, drainMs,
				fmt.Sprintf("%.2f", fairness))
			rows = append(rows, asyncLeaseBenchRow{
				Replicas:      s.replicas,
				KillFrac:      s.killFrac,
				Revival:       revival,
				Accepted:      accepted,
				BacklogAtKill: backlogAtKill,
				Stranded:      stranded,
				DrainMs:       drainMs,
				Fairness:      fairness,
				LeasesIssued:  h.CP().Metrics().Counter("async_leases_issued").Value(),
				LeasesRecall:  h.CP().Metrics().Counter("async_leases_recalled").Value(),
			})
			h.Close()
		}
	}
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: stranded is 0 in every row — survivors drain a dead replica's")
	fmt.Fprintln(w, "# acknowledged records without waiting for its restart. fairness stays ~<= 1:")
	fmt.Fprintln(w, "# the hot function's flood never head-of-line blocks co-resident functions under")
	fmt.Fprintln(w, "# deficit round-robin.")
	if data, err := json.MarshalIndent(rows, "", "  "); err == nil {
		if werr := os.WriteFile("BENCH_async.json", append(data, '\n'), 0o644); werr != nil {
			fmt.Fprintf(w, "# warning: BENCH_async.json not written: %v\n", werr)
		} else {
			fmt.Fprintln(w, "# wrote BENCH_async.json")
		}
	}
	return nil
}
