package e2e

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/fleet"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// execCounter tallies executions per payload across the worker fleet, so
// a test can tell "executed at least once" (required) from "re-executed
// after its settle" (forbidden).
type execCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newExecCounter() *execCounter { return &execCounter{counts: make(map[string]int)} }

func (e *execCounter) handler(delay time.Duration) func([]byte) ([]byte, error) {
	return func(p []byte) ([]byte, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		e.mu.Lock()
		e.counts[string(p)]++
		e.mu.Unlock()
		return p, nil
	}
}

func (e *execCounter) snapshot() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap := make(map[string]int, len(e.counts))
	for k, v := range e.counts {
		snap[k] = v
	}
	return snap
}

// TestTCPAsyncLeaseFailover is the acceptance scenario for lease
// failover, over the real TCP stack: a durable data plane replica is
// killed mid-async-burst; the control plane's health sweep leases its
// shard hashes to the survivors, which drain every acknowledged task to
// completion — zero stranded records, no restart required. Reviving the
// victim then recalls the lease at a higher epoch and re-executes
// nothing that already settled.
func TestTCPAsyncLeaseFailover(t *testing.T) {
	const (
		replicas = 3
		workers  = 6
		numFns   = 4
		asyncN   = 60
	)
	tr := transport.NewTCP()
	t.Cleanup(func() { tr.Close() })

	cp := controlplane.New(controlplane.Config{
		Addr:              "127.0.0.1:0",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DataPlaneTimeout:  time.Second,
		NoDownscaleWindow: time.Minute,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	cpAddr := cp.Addr()

	// One store shared by every replica: the layout lease failover needs.
	shared := store.NewMemory()
	dps := fleet.NewDataPlanes(fleet.DataPlanesConfig{
		Count:             replicas,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		Loopback:          true,
		SharedStore:       shared,
		HeartbeatInterval: 100 * time.Millisecond,
		MetricInterval:    15 * time.Millisecond,
		QueueTimeout:      30 * time.Second,
	})
	if err := dps.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dps.Stop)

	execs := newExecCounter()
	fl := fleet.New(fleet.Config{
		Size:              workers,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		Loopback:          true,
		HeartbeatInterval: 250 * time.Millisecond,
		// Slow enough that the victim is killed with acknowledged tasks
		// still unsettled — the set the lease exists to save.
		Handler: execs.handler(100 * time.Millisecond),
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fnName := func(i int) string { return fmt.Sprintf("lease-%d", i%numFns) }
	for i := 0; i < numFns; i++ {
		fn := core.Function{Name: fnName(i), Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
		fn.Scaling.MinScale = 1
		fn.Scaling.StableWindow = time.Minute
		if _, err := tr.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			t.Fatalf("register %s: %v", fnName(i), err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; i < numFns; i++ {
		for {
			if ready, _ := cp.FunctionScale(fnName(i)); ready >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("scale-up of %s stuck", fnName(i))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Spread the burst across the replicas directly (round-robin, the
	// front-end tier has its own e2e coverage) so every replica owns
	// acknowledged records when the victim dies.
	addrs := dps.Addrs()
	for i := 0; i < asyncN; i++ {
		req := proto.InvokeRequest{Function: fnName(i), Async: true, Payload: []byte(fmt.Sprintf("t-%d", i))}
		raw, err := tr.Call(ctx, addrs[i%replicas], proto.MethodInvoke, req.Marshal())
		if err != nil {
			t.Fatalf("async accept t-%d: %v", i, err)
		}
		resp, err := proto.UnmarshalInvokeResponse(raw)
		if err != nil || string(resp.Body) != "accepted" {
			t.Fatalf("async accept t-%d: body %q err %v", i, resp.Body, err)
		}
	}

	// Kill the replica holding the most acknowledged tasks, with the
	// burst still draining.
	victim, most := -1, int64(-1)
	for i, dp := range dps.DPs() {
		if n := dp.Metrics().Counter("async_accepted").Value(); n > most {
			victim, most = i, n
		}
	}
	victimID := core.DataPlaneID(1 + victim)
	dps.StopOne(victim)

	// The health sweep prunes the victim and leases its shard hashes to
	// the survivors.
	deadline = time.Now().Add(30 * time.Second)
	for cp.AsyncLeaseCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no lease issued for the dead replica (pruned=%d)", replicas-cp.DataPlaneCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := cp.Metrics().Counter("async_leases_issued").Value(); n < 1 {
		t.Fatalf("async_leases_issued = %d, want >= 1", n)
	}

	// Zero acknowledged tasks stranded: the shared backlog drains to
	// nothing with the victim still dead, and every accepted payload
	// executed at least once.
	deadline = time.Now().Add(60 * time.Second)
	for dataplane.AsyncBacklog(shared) != 0 {
		if time.Now().After(deadline) {
			drained := int64(0)
			for i, dp := range dps.DPs() {
				if i != victim {
					drained += dp.Metrics().Counter("async_lease_drained").Value()
				}
			}
			t.Fatalf("acknowledged tasks stranded: backlog=%d lease_drained=%d",
				dataplane.AsyncBacklog(shared), drained)
		}
		time.Sleep(10 * time.Millisecond)
	}
	counts := execs.snapshot()
	for i := 0; i < asyncN; i++ {
		if counts[fmt.Sprintf("t-%d", i)] == 0 {
			t.Errorf("acknowledged task t-%d never executed", i)
		}
	}
	// The lease epoch fenced the victim's records while draining them.
	fence := shared.HGetU64("async-lease-fence", fmt.Sprintf("%d", victimID))
	if fence < 1 {
		t.Fatalf("victim fence = %d, want >= 1 after lease", fence)
	}

	// Revival: the victim re-registers, the control plane recalls the
	// lease at a strictly higher epoch, and nothing that settled under
	// the lease runs again.
	settled := execs.snapshot()
	if err := dps.Restart(victim); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for cp.AsyncLeaseCount() != 0 || cp.DataPlaneCount() != replicas {
		if time.Now().After(deadline) {
			t.Fatalf("lease not recalled on revival: leases=%d dps=%d",
				cp.AsyncLeaseCount(), cp.DataPlaneCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := cp.Metrics().Counter("async_leases_recalled").Value(); n < 1 {
		t.Fatalf("async_leases_recalled = %d, want >= 1", n)
	}
	// The revival epoch out-fences the lease.
	deadline = time.Now().Add(10 * time.Second)
	for shared.HGetU64("async-lease-fence", fmt.Sprintf("%d", victimID)) <= fence {
		if time.Now().After(deadline) {
			t.Fatalf("victim fence stuck at %d after revival", fence)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Settle-state is authoritative: revival recovery found nothing, so
	// no payload's execution count moves.
	time.Sleep(300 * time.Millisecond)
	if n := dps.DPs()[victim].Metrics().Counter("async_recovered").Value(); n != 0 {
		t.Fatalf("revived replica re-recovered %d settled tasks", n)
	}
	for k, v := range execs.snapshot() {
		if v != settled[k] {
			t.Fatalf("task %s re-executed after settle: %d -> %d runs", k, settled[k], v)
		}
	}
}

// TestAsyncLeaseLesseeFailover kills the dead owner's lessee mid-drain:
// the sweep must re-mint the lease at a higher epoch for the remaining
// survivor, which re-drains everything the dead lessee had queued but
// not settled. No acknowledged task is stranded across the double
// failure.
func TestAsyncLeaseLesseeFailover(t *testing.T) {
	const asyncN = 48
	tr := transport.NewInProc()

	cp := controlplane.New(controlplane.Config{
		Addr:              "cp",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		DataPlaneTimeout:  300 * time.Millisecond,
		NoDownscaleWindow: time.Minute,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)

	shared := store.NewMemory()
	dps := fleet.NewDataPlanes(fleet.DataPlanesConfig{
		Count:             3,
		Transport:         tr,
		ControlPlanes:     []string{"cp"},
		SharedStore:       shared,
		HeartbeatInterval: 50 * time.Millisecond,
		MetricInterval:    15 * time.Millisecond,
		QueueTimeout:      30 * time.Second,
	})
	if err := dps.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dps.Stop)

	execs := newExecCounter()
	fl := fleet.New(fleet.Config{
		Size:              4,
		Transport:         tr,
		ControlPlanes:     []string{"cp"},
		HeartbeatInterval: 250 * time.Millisecond,
		Handler:           execs.handler(15 * time.Millisecond), // slow: the lessee dies mid-drain
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fn := core.Function{Name: "relay", Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = 1
	fn.Scaling.StableWindow = time.Minute
	if _, err := tr.Call(ctx, "cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ready, _ := cp.FunctionScale("relay"); ready >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scale-up stuck")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every record lands on replica 0 — the owner whose death starts the
	// lease, and whose backlog outlives two replicas.
	for i := 0; i < asyncN; i++ {
		req := proto.InvokeRequest{Function: "relay", Async: true, Payload: []byte(fmt.Sprintf("r-%d", i))}
		if _, err := tr.Call(ctx, dps.Addrs()[0], proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatalf("accept r-%d: %v", i, err)
		}
	}
	dps.StopOne(0)

	// The function's records all live in one shard hash, so one survivor
	// ends up draining them. Wait until a lessee has demonstrably queued
	// leased work, then kill that one mid-drain.
	lessee := -1
	deadline = time.Now().Add(30 * time.Second)
	for lessee < 0 {
		for i := 1; i < 3; i++ {
			if dps.DPs()[i].Metrics().Counter("async_lease_drained").Value() >= 1 {
				lessee = i
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no survivor drained leased work (leases=%d)", cp.AsyncLeaseCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	issued := cp.Metrics().Counter("async_leases_issued").Value()
	dps.StopOne(lessee)

	// The sweep re-mints the lease for the last survivor...
	deadline = time.Now().Add(30 * time.Second)
	for cp.Metrics().Counter("async_leases_issued").Value() <= issued {
		if time.Now().After(deadline) {
			t.Fatalf("lease not re-minted after lessee death (issued=%d)", issued)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...and the owner's backlog still drains to zero.
	deadline = time.Now().Add(60 * time.Second)
	for dataplane.AsyncBacklog(shared) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tasks stranded after lessee death: backlog=%d", dataplane.AsyncBacklog(shared))
		}
		time.Sleep(10 * time.Millisecond)
	}
	counts := execs.snapshot()
	for i := 0; i < asyncN; i++ {
		if counts[fmt.Sprintf("r-%d", i)] == 0 {
			t.Errorf("acknowledged task r-%d never executed", i)
		}
	}
}
