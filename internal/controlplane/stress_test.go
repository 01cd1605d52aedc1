package controlplane

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// TestConcurrentControlPlaneAccess hammers one control plane replica with
// parallel registrations, heartbeats, scaling metrics, sandbox
// transitions, reconcile passes and status reads across many functions.
// Run with -race, it locks in the sharded state manager's correctness:
// distinct functions take distinct shard locks, workers take per-worker
// locks, and nothing relies on the seed's global mutex for exclusion.
func TestConcurrentControlPlaneAccess(t *testing.T) {
	const (
		numFunctions = 64
		numWorkers   = 4
		numSandboxes = 4 // sandbox IDs cycled per function
		iters        = 200
	)

	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:      "cp0",
		Transport: tr,
		DB:        db,
		// Loops are driven explicitly below; park the tickers.
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	call := func(method string, payload []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Errors are expected under churn (e.g. a sandbox-ready event
		// racing its function's deregistration); the test asserts on
		// final state and on the race detector, not per-call success.
		_, _ = tr.Call(ctx, "cp0", method, payload)
	}

	for w := 1; w <= numWorkers; w++ {
		startFakeWorker(t, tr, "cp0", core.NodeID(w), fmt.Sprintf("10.0.0.%d:9000", w), false)
		req := proto.RegisterWorkerRequest{Worker: core.WorkerNode{
			ID: core.NodeID(w), Name: fmt.Sprintf("w%d", w), IP: fmt.Sprintf("10.0.0.%d", w),
			Port: 9000, CPUMilli: 100000, MemoryMB: 1 << 20,
		}}
		call(proto.MethodRegisterWorker, req.Marshal())
	}
	startFakeDP(t, tr, "dp0:8000")
	reg := proto.RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: 1, IP: "dp0", Port: 8000}}
	call(proto.MethodRegisterDataPlane, reg.Marshal())

	fnName := func(i int) string { return fmt.Sprintf("stress-fn-%d", i) }

	var wg sync.WaitGroup
	run := func(fn func(g int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < iters; g++ {
				fn(g)
			}
		}()
	}

	// Registrations: 8 goroutines each own 8 functions and re-register
	// them repeatedly (idempotent updates).
	for g := 0; g < 8; g++ {
		g := g
		run(func(i int) {
			fn := fnSpec(fnName(g*8 + i%8))
			call(proto.MethodRegisterFunction, core.MarshalFunction(&fn))
		})
	}
	// Heartbeat floods from every worker.
	for w := 1; w <= numWorkers; w++ {
		w := w
		run(func(int) {
			hb := proto.WorkerHeartbeat{Node: core.NodeID(w)}
			call(proto.MethodWorkerHeartbeat, hb.Marshal())
		})
	}
	// Scaling metric reports across all functions.
	run(func(i int) {
		report := proto.ScalingMetricReport{DataPlane: 1, Metrics: []core.ScalingMetric{
			{Function: fnName(i % numFunctions), InFlight: i % 5, QueueDepth: i % 3, At: time.Now()},
		}}
		call(proto.MethodScalingMetric, report.Marshal())
	})
	// Sandbox transitions: ready and crashed events racing each other on
	// a bounded ID space so state stays small.
	for g := 0; g < 4; g++ {
		g := g
		run(func(i int) {
			fn := (g*iters + i) % numFunctions
			ev := proto.SandboxEvent{
				SandboxID: core.SandboxID(1_000_000 + fn*numSandboxes + i%numSandboxes),
				Function:  fnName(fn),
				Node:      core.NodeID(i%numWorkers + 1),
				Addr:      fmt.Sprintf("10.0.0.%d:9000", i%numWorkers+1),
			}
			if i%3 == 2 {
				call(proto.MethodSandboxCrashed, ev.Marshal())
			} else {
				call(proto.MethodSandboxReadyBatch, readyOf(ev))
			}
		})
	}
	// Autoscale sweeps concurrent with everything above.
	run(func(int) { cp.Reconcile() })
	// Reads: scale queries and cluster status.
	run(func(i int) {
		cp.FunctionScale(fnName(i % numFunctions))
		cp.WorkerCount()
		if i%16 == 0 {
			call(proto.MethodClusterStatus, nil)
		}
	})
	// Function churn on a dedicated name that also shares shards with the
	// stable ones.
	run(func(i int) {
		fn := fnSpec("stress-churn")
		if i%2 == 0 {
			call(proto.MethodRegisterFunction, core.MarshalFunction(&fn))
		} else {
			call(proto.MethodDeregisterFunction, core.MarshalFunction(&fn))
		}
	})

	wg.Wait()

	// All 64 stable functions must have survived the churn, persisted and
	// visible in status.
	for i := 0; i < numFunctions; i++ {
		if _, ok := db.HGet(hashFunctions, fnName(i)); !ok {
			t.Errorf("function %s lost from persistent store", fnName(i))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := tr.Call(ctx, "cp0", proto.MethodClusterStatus, nil)
	if err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	status := string(out)
	for i := 0; i < numFunctions; i++ {
		if !strings.Contains(status, fnName(i)) {
			t.Errorf("status missing %s", fnName(i))
		}
	}
	if cp.WorkerCount() != numWorkers {
		t.Errorf("WorkerCount = %d, want %d", cp.WorkerCount(), numWorkers)
	}
}

// TestShardAblationSingleShard locks in that StateShards=1 (the global
// lock ablation) still behaves correctly — every function lands in the
// one shard and all paths keep working.
func TestShardAblationSingleShard(t *testing.T) {
	tr := transport.NewInProc()
	cp := New(Config{
		Addr:              "cp1shard",
		Transport:         tr,
		DB:                store.NewMemory(),
		StateShards:       1,
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	if len(cp.shards) != 1 {
		t.Fatalf("StateShards=1 built %d shards", len(cp.shards))
	}
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		fn := fnSpec(fmt.Sprintf("f%d", i))
		if _, err := tr.Call(ctx, "cp1shard", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(cp.functionNames()); got != 16 {
		t.Fatalf("functionNames = %d, want 16", got)
	}
}

// TestShardDistribution sanity-checks that the FNV stripe spreads
// realistic function names across shards instead of piling onto one.
func TestShardDistribution(t *testing.T) {
	cp := New(Config{Addr: "unused", DB: store.NewMemory()})
	seen := make(map[*functionShard]int)
	for i := 0; i < 512; i++ {
		seen[cp.shardFor(fmt.Sprintf("function-%d", i))]++
	}
	if len(seen) < defaultStateShards/2 {
		t.Fatalf("512 names hit only %d of %d shards", len(seen), defaultStateShards)
	}
	for sh, n := range seen {
		if n > 512/4 {
			t.Fatalf("shard %p got %d of 512 names", sh, n)
		}
	}
}
