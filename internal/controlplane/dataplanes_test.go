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

// newDPLifecycleCP builds a control plane on a virtual clock with parked
// loops, so tests drive heartbeats and health sweeps deterministically.
func newDPLifecycleCP(t *testing.T, tr *transport.InProc, vclk *clock.Virtual) *ControlPlane {
	t.Helper()
	cp := New(Config{
		Addr:              "cp0",
		Transport:         tr,
		DB:                store.NewMemory(),
		Clock:             vclk,
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Second, // DataPlaneTimeout defaults to 3s
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	return cp
}

func registerDP(t *testing.T, tr *transport.InProc, id core.DataPlaneID, ip string, port uint16) {
	t.Helper()
	reg := proto.RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: id, IP: ip, Port: port}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterDataPlane, reg.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func dpHeartbeat(t *testing.T, tr *transport.InProc, id core.DataPlaneID, ip string, port uint16) {
	t.Helper()
	hb := proto.DataPlaneHeartbeat{DataPlane: core.DataPlane{ID: id, IP: ip, Port: port}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, "cp0", proto.MethodDataPlaneHeartbeat, hb.Marshal()); err != nil {
		t.Fatal(err)
	}
}

func listDPs(t *testing.T, tr *transport.InProc) []core.DataPlane {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	respB, err := tr.Call(ctx, "cp0", proto.MethodListDataPlanes, nil)
	if err != nil {
		t.Fatal(err)
	}
	list, err := proto.UnmarshalDataPlaneList(respB)
	if err != nil {
		t.Fatal(err)
	}
	return list.DataPlanes
}

// TestDataPlaneHeartbeatPrunesAndRevives is the data plane lifecycle
// core: a replica whose heartbeats stop is pruned from the broadcast
// fan-out set within one health sweep, and a resumed heartbeat revives
// it with a full cache re-warm (function list + every endpoint set), so
// broadcasts missed while it was out of the set cannot leave its caches
// stale forever.
func TestDataPlaneHeartbeatPrunesAndRevives(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(5000, 0))
	cp := newDPLifecycleCP(t, tr, vclk)
	dp := startFakeDP(t, tr, "dp0:8000")
	registerDP(t, tr, 1, "dp0", 8000)

	fn := fnSpec("before")
	ctx := context.Background()
	if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	dp.mu.Lock()
	sawBefore := dp.functions["before"]
	dp.mu.Unlock()
	if !sawBefore {
		t.Fatalf("registered function never pushed to the live data plane")
	}

	// Heartbeats keep the replica live across sweeps.
	vclk.Advance(2 * time.Second)
	dpHeartbeat(t, tr, 1, "dp0", 8000)
	vclk.Advance(2 * time.Second)
	dpHeartbeat(t, tr, 1, "dp0", 8000)
	cp.HealthSweep()
	if got := cp.DataPlaneCount(); got != 1 {
		t.Fatalf("heartbeating data plane pruned: DataPlaneCount = %d, want 1", got)
	}

	// Heartbeats stop: one sweep past the timeout prunes the replica.
	vclk.Advance(3*time.Second + time.Millisecond)
	cp.HealthSweep()
	if got := cp.DataPlaneCount(); got != 0 {
		t.Fatalf("dead data plane not pruned: DataPlaneCount = %d, want 0", got)
	}
	if got := len(listDPs(t, tr)); got != 0 {
		t.Fatalf("ListDataPlanes returned %d replicas after prune, want 0", got)
	}
	if n := cp.Metrics().Counter("dataplane_failures_detected").Value(); n != 1 {
		t.Errorf("dataplane_failures_detected = %d, want 1", n)
	}

	// Broadcasts now skip the pruned replica entirely.
	fn2 := fnSpec("while-dead")
	if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn2)); err != nil {
		t.Fatal(err)
	}
	dp.mu.Lock()
	sawWhileDead := dp.functions["while-dead"]
	dp.mu.Unlock()
	if sawWhileDead {
		t.Fatalf("pruned data plane still received function broadcasts")
	}

	// A resumed heartbeat revives the replica with a full cache re-warm:
	// the function registered while it was out of the set arrives now.
	dpHeartbeat(t, tr, 1, "dp0", 8000)
	if got := cp.DataPlaneCount(); got != 1 {
		t.Fatalf("revived data plane not re-admitted: DataPlaneCount = %d, want 1", got)
	}
	dp.mu.Lock()
	warmed := dp.functions["while-dead"] && dp.functions["before"]
	dp.mu.Unlock()
	if !warmed {
		t.Errorf("revival did not re-warm the function cache: %+v", dp.functions)
	}
	if n := cp.Metrics().Counter("dataplane_revivals").Value(); n != 1 {
		t.Errorf("dataplane_revivals = %d, want 1", n)
	}
	// And it is back in the fan-out set for subsequent sweeps.
	cp.HealthSweep()
	if got := cp.DataPlaneCount(); got != 1 {
		t.Fatalf("revived data plane pruned again immediately: DataPlaneCount = %d", got)
	}
}

// TestDataPlaneHeartbeatUnknownReAdmits covers the heartbeat-racing-
// recovery hole: a heartbeat carrying a replica identity the control
// plane has no registry entry for re-admits the replica (with a cache
// warm) instead of being dropped on the floor.
func TestDataPlaneHeartbeatUnknownReAdmits(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(5000, 0))
	cp := newDPLifecycleCP(t, tr, vclk)
	dp := startFakeDP(t, tr, "dp9:8000")

	fn := fnSpec("warmme")
	ctx := context.Background()
	if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	dpHeartbeat(t, tr, 9, "dp9", 8000)
	if got := cp.DataPlaneCount(); got != 1 {
		t.Fatalf("unknown heartbeat not re-admitted: DataPlaneCount = %d, want 1", got)
	}
	dp.mu.Lock()
	warmed := dp.functions["warmme"]
	dp.mu.Unlock()
	if !warmed {
		t.Errorf("re-admitted replica's caches not warmed")
	}
}

// TestListDataPlanesSortedLiveSet pins the membership wire contract the
// front end polls: live replicas only, sorted by ID.
func TestListDataPlanesSortedLiveSet(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(5000, 0))
	cp := newDPLifecycleCP(t, tr, vclk)
	startFakeDP(t, tr, "dp2:8000")
	startFakeDP(t, tr, "dp1:8000")
	registerDP(t, tr, 2, "dp2", 8000)
	registerDP(t, tr, 1, "dp1", 8000)

	dps := listDPs(t, tr)
	if len(dps) != 2 || dps[0].ID != 1 || dps[1].ID != 2 {
		t.Fatalf("ListDataPlanes = %+v, want IDs [1 2]", dps)
	}

	// Only replica 1 keeps heartbeating; the sweep prunes replica 2 and
	// the list shrinks accordingly.
	vclk.Advance(3*time.Second + time.Millisecond)
	dpHeartbeat(t, tr, 1, "dp1", 8000)
	cp.HealthSweep()
	dps = listDPs(t, tr)
	if len(dps) != 1 || dps[0].ID != 1 {
		t.Fatalf("ListDataPlanes after prune = %+v, want ID [1]", dps)
	}
}

// TestSweepSendsOneBatchPerWorker pins the batching itself: the eight
// creations one sweep places on a worker travel in one CreateSandboxBatch
// RPC, and the eight teardowns of a deregistration in one
// KillSandboxBatch RPC.
func TestSweepSendsOneBatchPerWorker(t *testing.T) {
	tr := transport.NewInProc()
	cp := New(Config{
		Addr:              "cp0",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	w := startFakeWorker(t, tr, "cp0", 1, "10.3.0.1:9000", true)
	ctx := context.Background()
	req := proto.RegisterWorkerRequest{Worker: core.WorkerNode{
		ID: 1, Name: "kw1", IP: "10.3.0.1", Port: 9000, CPUMilli: 1 << 20, MemoryMB: 1 << 20,
	}}
	if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterWorker, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	const scale = 8
	fn := fnSpec("batched")
	fn.Scaling.MinScale = scale
	if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	cp.Reconcile()
	deadline := time.Now().Add(5 * time.Second)
	for ready := 0; ready < scale; ready, _ = cp.FunctionScale("batched") {
		if time.Now().After(deadline) {
			t.Fatalf("ready = %d, want %d", ready, scale)
		}
		time.Sleep(time.Millisecond)
	}

	// Deregistration tears every sandbox down through the same dispatch
	// path the autoscaler's scale-down uses.
	if _, err := tr.Call(ctx, "cp0", proto.MethodDeregisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	var kills, creates, killRPCs int
	for deadline = time.Now().Add(5 * time.Second); kills < scale && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		w.mu.Lock()
		kills, creates, killRPCs = len(w.killed), w.batchRPCs, w.batchKillRPCs
		w.mu.Unlock()
	}
	if kills != scale || creates != 1 || killRPCs != 1 {
		t.Errorf("worker saw %d kills in %d RPCs after %d create RPCs, want %d in 1 after 1", kills, killRPCs, creates, scale)
	}
	if p := cp.Metrics().Histogram("kill_batch_size").Max(); p != scale {
		t.Errorf("kill_batch_size max = %.0f, want %d", p, scale)
	}
	if n := cp.Metrics().Counter("sandbox_teardowns").Value(); n != scale {
		t.Errorf("sandbox_teardowns = %d, want %d", n, scale)
	}
}
