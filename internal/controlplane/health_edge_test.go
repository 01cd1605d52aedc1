package controlplane

import (
	"context"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// newVClockHarness builds a control plane on a virtual clock with both
// background loops effectively parked (the autoscale ticker is hours
// long and health sweeps are driven explicitly), so the heartbeat-
// timeout edge cases below are exercised deterministically.
func newVClockHarness(t *testing.T, timeout time.Duration) (*ControlPlane, *transport.InProc, *clock.Virtual) {
	return newVClockHarnessWith(t, func(cfg *Config) { cfg.HeartbeatTimeout = timeout })
}

// newVClockHarnessWith is newVClockHarness (1 s heartbeat timeout)
// configured through mutate, so a test can pin DeadWorkerGC explicitly.
func newVClockHarnessWith(t *testing.T, mutate func(*Config)) (*ControlPlane, *transport.InProc, *clock.Virtual) {
	t.Helper()
	vclk := clock.NewVirtual(time.Unix(1_000_000, 0))
	tr := transport.NewInProc()
	cfg := Config{
		Addr:              "cp-health",
		Transport:         tr,
		DB:                store.NewMemory(),
		Clock:             vclk,
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Second,
	}
	mutate(&cfg)
	cp := New(cfg)
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	return cp, tr, vclk
}

func heartbeat(t *testing.T, tr *transport.InProc, node core.NodeID) {
	t.Helper()
	hb := proto.WorkerHeartbeat{Node: node}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, "cp-health", proto.MethodWorkerHeartbeat, hb.Marshal()); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
}

// TestHealthSweepExactTimeoutBoundary pins the failure predicate's
// boundary: a worker whose last heartbeat is exactly HeartbeatTimeout
// old is still healthy (the comparison is strictly greater), and one
// nanosecond past the timeout it is failed.
func TestHealthSweepExactTimeoutBoundary(t *testing.T) {
	const timeout = time.Second
	cp, tr, vclk := newVClockHarness(t, timeout)
	registerWorkerAt(t, tr, "cp-health", 1, "10.0.0.1")
	startFakeWorker(t, tr, "cp-health", 1, "10.0.0.1:9000", true)

	// Exactly at the timeout: not failed.
	vclk.Advance(timeout)
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 1 {
		t.Fatalf("worker failed exactly at HeartbeatTimeout; WorkerCount = %d, want 1", got)
	}
	// One nanosecond past: failed.
	vclk.Advance(time.Nanosecond)
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 0 {
		t.Fatalf("worker not failed past HeartbeatTimeout; WorkerCount = %d, want 0", got)
	}
	if n := cp.Metrics().Histogram("health_sweep_ms").Count(); n < 2 {
		t.Errorf("health_sweep_ms observed %d sweeps, want >= 2", n)
	}
}

// TestHeartbeatDuringFailureDrain pins the revival semantics: a
// heartbeat that lands while (or after) the failure drain runs makes
// the worker schedulable again, but the drained endpoints stay gone
// until the autoscaler re-creates them — the drain is never half
// undone.
func TestHeartbeatDuringFailureDrain(t *testing.T) {
	const timeout = time.Second
	cp, tr, vclk := newVClockHarness(t, timeout)
	registerWorkerAt(t, tr, "cp-health", 1, "10.0.0.1")
	startFakeWorker(t, tr, "cp-health", 1, "10.0.0.1:9000", true)

	fn := fnSpec("drainfn")
	fn.Scaling.MinScale = 2
	ctx := context.Background()
	if _, err := tr.Call(ctx, "cp-health", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	cp.Reconcile()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ready, _ := cp.FunctionScale("drainfn"); ready >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sandboxes never came up")
		}
		time.Sleep(time.Millisecond)
	}

	// The worker goes silent; a heartbeat races the failure drain.
	vclk.Advance(timeout + time.Millisecond)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		heartbeat(t, tr, 1)
	}()
	cp.HealthSweep()
	<-hbDone

	// Whatever the interleaving, the state must be coherent: either the
	// heartbeat beat the sweep (worker never failed, endpoints intact)
	// or the drain won (endpoints gone) and the heartbeat revived the
	// worker afterwards. A post-race heartbeat always leaves the worker
	// schedulable.
	heartbeat(t, tr, 1)
	if got := cp.WorkerCount(); got != 1 {
		t.Fatalf("heartbeat after drain did not revive the worker; WorkerCount = %d, want 1", got)
	}
	// The revived worker accepts new placements.
	cp.Reconcile()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if ready, _ := cp.FunctionScale("drainfn"); ready >= 2 {
			return
		}
		if time.Now().After(deadline) {
			ready, creating := cp.FunctionScale("drainfn")
			t.Fatalf("revived worker never repopulated: ready=%d creating=%d", ready, creating)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedWorkerReRegistration pins that re-registering a failed
// worker ID replaces the dead entry in place: the worker becomes
// schedulable at its (possibly new) address and the fleet_size gauge
// does not double-count the node.
func TestFailedWorkerReRegistration(t *testing.T) {
	const timeout = time.Second
	cp, tr, vclk := newVClockHarness(t, timeout)
	registerWorkerAt(t, tr, "cp-health", 1, "10.0.0.1")
	startFakeWorker(t, tr, "cp-health", 1, "10.0.0.1:9000", true)

	vclk.Advance(timeout + time.Millisecond)
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 0 {
		t.Fatalf("worker not failed; WorkerCount = %d", got)
	}

	// The node comes back under the same ID at a new address.
	startFakeWorker(t, tr, "cp-health", 1, "10.0.0.9:9000", true)
	registerWorkerAt(t, tr, "cp-health", 1, "10.0.0.9")
	if got := cp.WorkerCount(); got != 1 {
		t.Fatalf("re-registered worker not healthy; WorkerCount = %d", got)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); got != 1 {
		t.Fatalf("fleet_size = %d after re-registration, want 1", got)
	}

	// New placements land at the new address.
	fn := fnSpec("rebornfn")
	fn.Scaling.MinScale = 1
	ctx := context.Background()
	if _, err := tr.Call(ctx, "cp-health", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	cp.Reconcile()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ready, _ := cp.FunctionScale("rebornfn"); ready >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-registered worker never received a placement")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClockSkewedHeartbeats pins that liveness is judged entirely by
// the control plane's own clock — heartbeats are stamped on arrival, so
// a worker with a skewed clock (or bursty, irregular heartbeat arrival)
// stays healthy as long as the gaps stay under the timeout, across many
// timeout windows.
func TestClockSkewedHeartbeats(t *testing.T) {
	const timeout = time.Second
	cp, tr, vclk := newVClockHarness(t, timeout)
	registerWorkerAt(t, tr, "cp-health", 1, "10.0.0.1")
	startFakeWorker(t, tr, "cp-health", 1, "10.0.0.1:9000", true)

	// Irregular arrivals hugging the timeout from below: 10 windows,
	// each gap just under the threshold.
	for i := 0; i < 10; i++ {
		vclk.Advance(timeout - time.Millisecond)
		cp.HealthSweep()
		if got := cp.WorkerCount(); got != 1 {
			t.Fatalf("window %d: worker failed despite in-window heartbeats; WorkerCount = %d", i, got)
		}
		heartbeat(t, tr, 1)
	}
	// Then one gap over the threshold: failed, regardless of how many
	// heartbeats came before.
	vclk.Advance(timeout + time.Millisecond)
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 0 {
		t.Fatalf("worker survived an over-timeout gap; WorkerCount = %d, want 0", got)
	}
}

// registerWorkerAt registers a worker node over the RPC path against an
// arbitrary CP address (the vclock harness doesn't use cpHarness).
func registerWorkerAt(t *testing.T, tr *transport.InProc, cpAddr string, id core.NodeID, ip string) {
	t.Helper()
	req := proto.RegisterWorkerRequest{Worker: core.WorkerNode{
		ID: id, Name: "hw" + ip, IP: ip, Port: 9000, CPUMilli: 100000, MemoryMB: 1 << 20,
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, cpAddr, proto.MethodRegisterWorker, req.Marshal()); err != nil {
		t.Fatalf("register worker: %v", err)
	}
}

// TestDeadWorkerGC pins the tombstone lifecycle: a crash-failed worker's
// record lingers for DeadWorkerGC (a late heartbeat inside the window
// revives it), then the entry and its persisted record are collected,
// after which even a heartbeat under the old ID is ignored — the node
// must re-register.
func TestDeadWorkerGC(t *testing.T) {
	const gc = 3 * time.Second
	cp, tr, vclk := newVClockHarnessWith(t, func(cfg *Config) {
		cfg.DeadWorkerGC = gc
	})
	registerWorkerAt(t, tr, "cp-health", 1, "10.2.0.1")
	heartbeat(t, tr, 1)

	// Fail by timeout; the record lingers.
	vclk.Advance(1100 * time.Millisecond)
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 0 {
		t.Fatalf("WorkerCount = %d, want 0 after timeout", got)
	}
	if got := len(cp.cfg.DB.HGetAll(hashWorkers)); got != 1 {
		t.Fatalf("persisted record collected too early (records = %d)", got)
	}

	// A late heartbeat inside the GC window revives the worker.
	vclk.Advance(time.Second)
	heartbeat(t, tr, 1)
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 1 {
		t.Fatalf("late heartbeat did not revive worker; WorkerCount = %d", got)
	}

	// Fail again and let the failure age past DeadWorkerGC: entry and
	// record are both collected.
	vclk.Advance(1100 * time.Millisecond)
	cp.HealthSweep()
	vclk.Advance(gc + 100*time.Millisecond)
	cp.HealthSweep()
	if got := cp.Metrics().Counter("dead_worker_gc").Value(); got != 1 {
		t.Fatalf("dead_worker_gc = %d, want 1", got)
	}
	if got := len(cp.cfg.DB.HGetAll(hashWorkers)); got != 0 {
		t.Errorf("persisted record survived GC (records = %d)", got)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); got != 0 {
		t.Errorf("fleet_size = %d, want 0 after GC", got)
	}

	// Post-GC heartbeats under the collected ID are ignored.
	heartbeat(t, tr, 1)
	if got := cp.WorkerCount(); got != 0 {
		t.Errorf("heartbeat resurrected a collected worker; WorkerCount = %d, want 0", got)
	}
}
