package dataplane

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// TestConcurrentDataPlaneAccess hammers one data plane replica with
// parallel sync and async invocations across many functions while
// endpoints churn, capacities change, functions deregister, and slots
// release concurrently. Run with -race, it locks in the sharded invoke
// path's correctness: distinct functions take distinct runtime locks,
// warm picks go through immutable snapshots and CAS slots, and nothing
// relies on the seed's global data plane mutex for exclusion. It mirrors
// the control plane's TestConcurrentControlPlaneAccess.
func TestConcurrentDataPlaneAccess(t *testing.T) {
	const (
		numFns = 64
		iters  = 120
	)

	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 5 * time.Millisecond,
		QueueTimeout:   2 * time.Second,
		AsyncRetries:   1,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()

	fnName := func(i int) string { return fmt.Sprintf("dp-stress-fn-%d", i) }
	fnSpec := func(name string, concurrency float64) core.Function {
		scaling := core.DefaultScalingConfig()
		scaling.TargetConcurrency = concurrency
		return core.Function{Name: name, Image: "img", Port: 80, Scaling: scaling}
	}

	call := func(method string, payload []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Errors are expected under churn (e.g. an invocation racing its
		// function's deregistration or an endpoint drain); the test
		// asserts on final state and the race detector, not per-call
		// success.
		_, _ = tr.Call(ctx, "dp0:8000", method, payload)
	}

	// stableList pushes the full function cache; with/without the churn
	// function, since AddFunction semantics drop anything unlisted.
	stableFns := make([]core.Function, numFns)
	for i := range stableFns {
		stableFns[i] = fnSpec(fnName(i), float64(1+i%4))
	}
	listWithout := proto.FunctionList{Functions: stableFns}
	listWith := proto.FunctionList{Functions: append(append([]core.Function(nil), stableFns...), fnSpec("dp-stress-churn", 1))}
	call(proto.MethodAddFunction, listWith.Marshal())

	// Endpoint versions bump monotonically per function so churn never
	// deadlocks on the stale-update guard.
	epVersions := make([]atomic.Uint64, numFns+1)
	pushEps := func(fnIdx int, name string, ids ...core.SandboxID) {
		update := proto.EndpointUpdate{Function: name, Version: epVersions[fnIdx].Add(1)}
		for _, id := range ids {
			update.Endpoints = append(update.Endpoints, proto.SandboxInfo{
				ID: id, Function: name, Node: 1, Addr: "w1:9000", State: core.SandboxReady,
			})
		}
		call(proto.MethodUpdateEndpointsBatch, endpointsOf(update))
	}
	for i := 0; i < numFns; i++ {
		pushEps(i, fnName(i), core.SandboxID(1000+i*4), core.SandboxID(1001+i*4))
	}

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

	// Sync invokers: 8 goroutines spraying across all functions.
	for g := 0; g < 8; g++ {
		g := g
		run(func(i int) {
			req := proto.InvokeRequest{Function: fnName((g*iters + i) % numFns), Payload: []byte("x")}
			call(proto.MethodInvoke, req.Marshal())
		})
	}
	// Async invokers.
	for g := 0; g < 2; g++ {
		g := g
		run(func(i int) {
			req := proto.InvokeRequest{Function: fnName((g*iters + 7*i) % numFns), Async: true, Payload: []byte("bg")}
			call(proto.MethodInvoke, req.Marshal())
		})
	}
	// Endpoint churn: grow, shrink, and empty endpoint sets.
	for g := 0; g < 4; g++ {
		g := g
		run(func(i int) {
			fn := (g*iters + i) % numFns
			base := core.SandboxID(1000 + fn*4)
			switch i % 3 {
			case 0:
				pushEps(fn, fnName(fn), base, base+1, base+2)
			case 1:
				pushEps(fn, fnName(fn), base+1)
			default:
				pushEps(fn, fnName(fn), base, base+1)
			}
		})
	}
	// Function spec churn: re-push the full list with alternating
	// TargetConcurrency so per-endpoint capacities recompute live.
	run(func(i int) {
		if i%2 == 0 {
			call(proto.MethodAddFunction, listWith.Marshal())
		} else {
			call(proto.MethodAddFunction, listWithout.Marshal())
		}
	})
	// Deregistration churn on a dedicated function that shares shards
	// with the stable ones.
	run(func(i int) {
		fn := fnSpec("dp-stress-churn", 1)
		if i%2 == 0 {
			pushEps(numFns, "dp-stress-churn", 9999)
		} else {
			call(proto.MethodRemoveFunction, core.MarshalFunction(&fn))
		}
	})
	// Invocations racing that remove/re-register churn exercise the
	// stale-runtime re-resolution in the cold-start and requeue paths.
	// Few iterations: once the churn goroutines drain, each of these can
	// legitimately block for a full queue timeout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			req := proto.InvokeRequest{Function: "dp-stress-churn", Payload: []byte("churn")}
			call(proto.MethodInvoke, req.Marshal())
		}
	}()
	// Reads concurrent with everything above.
	run(func(i int) {
		dp.QueueDepth(fnName(i % numFns))
		dp.EndpointCount(fnName(i % numFns))
		dp.PendingAsync()
	})

	wg.Wait()

	// Every stable function must still be registered and invocable once
	// a fresh endpoint set lands.
	for i := 0; i < numFns; i++ {
		pushEps(i, fnName(i), core.SandboxID(1000+i*4))
	}
	for i := 0; i < numFns; i++ {
		resp, err := invoke(tr, dp.Addr(), fnName(i), []byte("final"))
		if err != nil {
			t.Fatalf("post-churn invoke of %s: %v", fnName(i), err)
		}
		if string(resp.Body) != "done:final" {
			t.Fatalf("post-churn invoke of %s returned %q", fnName(i), resp.Body)
		}
	}
}

// TestInvokeShardDistribution sanity-checks that the FNV stripe spreads
// realistic function names across registry shards instead of piling
// onto one.
func TestInvokeShardDistribution(t *testing.T) {
	dp := New(Config{Addr: "unused"})
	seen := make(map[*invokeShard]int)
	for i := 0; i < 512; i++ {
		seen[dp.shardFor(fmt.Sprintf("function-%d", i))]++
	}
	if len(seen) < registryShards/2 {
		t.Fatalf("512 names hit only %d of %d shards", len(seen), registryShards)
	}
	for sh, n := range seen {
		if n > 512/4 {
			t.Fatalf("shard %p got %d of 512 names", sh, n)
		}
	}
}
