package controlplane

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// TestWorkerShardsAblationSeedParity drives the full worker lifecycle
// through the striped registry: a registration storm, heartbeats,
// placement, a correlated failure that drains a quarter of the fleet, and
// re-registration. The registry is always striped now, so "sharded-default"
// is its one arm.
func TestWorkerShardsAblationSeedParity(t *testing.T) {
	t.Run("sharded-default", testWorkerRegistryLifecycle)
}

func testWorkerRegistryLifecycle(t *testing.T) {
	const (
		numWorkers = 24
		burst      = 12
	)
	type observed struct {
		workersAfterStorm int
		fleetSize         int64
		readyAfterBurst   int
		workersAfterFail  int
		readyAfterDrain   int
		workersAfterReReg int
	}
	tr := transport.NewInProc()
	cp := New(Config{
		Addr:              "cpws0",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour, // failures injected via deregistration
		NoDownscaleWindow: time.Millisecond,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	if got := len(cp.wshards); got != workerShards {
		t.Fatalf("built %d registry stripes, want %d", got, workerShards)
	}
	ctx := context.Background()
	workerReq := func(w int) proto.RegisterWorkerRequest {
		return proto.RegisterWorkerRequest{Worker: core.WorkerNode{
			ID: core.NodeID(w), Name: fmt.Sprintf("pw%d", w), IP: fmt.Sprintf("10.3.0.%d", w),
			Port: 9000, CPUMilli: 1 << 20, MemoryMB: 1 << 20,
		}}
	}
	for w := 1; w <= numWorkers; w++ {
		startFakeWorker(t, tr, "cpws0", core.NodeID(w), fmt.Sprintf("10.3.0.%d:9000", w), true)
		req := workerReq(w)
		if _, err := tr.Call(ctx, "cpws0", proto.MethodRegisterWorker, req.Marshal()); err != nil {
			t.Fatal(err)
		}
		hb := proto.WorkerHeartbeat{Node: core.NodeID(w)}
		if _, err := tr.Call(ctx, "cpws0", proto.MethodWorkerHeartbeat, hb.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	var obs observed
	obs.workersAfterStorm = cp.WorkerCount()
	obs.fleetSize = cp.Metrics().Gauge("fleet_size").Value()

	fn := fnSpec("parity-ws")
	fn.Scaling.MinScale = burst
	if _, err := tr.Call(ctx, "cpws0", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	cp.Reconcile()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ready, _ := cp.FunctionScale("parity-ws"); ready >= burst {
			break
		}
		time.Sleep(time.Millisecond)
	}
	obs.readyAfterBurst, _ = cp.FunctionScale("parity-ws")

	// Correlated failure: a quarter of the fleet deregisters, which fails
	// each worker and drains its sandboxes.
	for w := 1; w <= numWorkers/4; w++ {
		req := workerReq(w)
		if _, err := tr.Call(ctx, "cpws0", proto.MethodDeregisterWorker, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	obs.workersAfterFail = cp.WorkerCount()
	// The drain's Reconcile re-creates capacity on survivors. Keep
	// reconciling until the scale converges: a readiness report that raced
	// the drain can leave a transient surplus the next sweep tears back
	// down.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ready, _ := cp.FunctionScale("parity-ws"); ready == burst {
			break
		}
		cp.Reconcile()
		time.Sleep(time.Millisecond)
	}
	obs.readyAfterDrain, _ = cp.FunctionScale("parity-ws")

	for w := 1; w <= numWorkers/4; w++ {
		req := workerReq(w)
		if _, err := tr.Call(ctx, "cpws0", proto.MethodRegisterWorker, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	obs.workersAfterReReg = cp.WorkerCount()

	want := observed{
		workersAfterStorm: numWorkers,
		fleetSize:         numWorkers,
		readyAfterBurst:   burst,
		workersAfterFail:  numWorkers - numWorkers/4,
		readyAfterDrain:   burst,
		workersAfterReReg: numWorkers,
	}
	if obs != want {
		t.Errorf("observations = %+v, want %+v", obs, want)
	}
}

// TestWorkerShardDistribution sanity-checks that sequential node IDs
// spread across the registry stripes instead of piling onto one.
func TestWorkerShardDistribution(t *testing.T) {
	cp := New(Config{Addr: "unused", DB: store.NewMemory()})
	seen := make(map[*workerShard]int)
	for i := 1; i <= 512; i++ {
		seen[cp.workerShardFor(core.NodeID(i))]++
	}
	if len(seen) != workerShards {
		t.Fatalf("512 sequential IDs hit only %d of %d worker shards", len(seen), workerShards)
	}
	for sh, n := range seen {
		if n > 512/workerShards {
			t.Fatalf("worker shard %p got %d of 512 IDs", sh, n)
		}
	}
}
