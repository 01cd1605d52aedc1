package worker

import (
	"context"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/transport"
)

// TestConcurrentWorkerBatchedCreates hammers the worker's batched
// cold-start machinery under -race: parallel batch-create RPCs feeding
// the bounded creation pool, pre-warm claims racing pool refills, kills
// and crashes racing readiness reports, and invocations racing all of
// it. It locks in that the creation semaphore, the pre-warm pool, and
// the readiness-flusher handoff need no lock shared with dispatch.
func TestConcurrentWorkerBatchedCreates(t *testing.T) {
	eachRuntime(t, testConcurrentWorkerBatchedCreates)
}

func testConcurrentWorkerBatchedCreates(t *testing.T, rt sandbox.Runtime) {
	const iters = 60

	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, func(c *Config) {
		c.Prewarm = 4
		c.CreateConcurrency = 4
	})
	ctx := context.Background()

	// A stable population that invocations always hit.
	stable := proto.CreateSandboxBatch{}
	for i := 1; i <= 8; i++ {
		stable.Creates = append(stable.Creates, proto.CreateSandboxRequest{
			SandboxID: core.SandboxID(i), Function: testFn(),
		})
	}
	if _, err := tr.Call(ctx, w.Addr(), proto.MethodCreateSandboxBatch, stable.Marshal()); err != nil {
		t.Fatal(err)
	}
	awaitReady(t, cp, 8)

	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}

	// Batched creates on churn ID ranges, some claiming prewarm, then
	// kill or crash what came up.
	for g := 0; g < 3; g++ {
		g := g
		run(func(i int) {
			base := core.SandboxID(1000 + (g*iters+i)*4)
			batch := proto.CreateSandboxBatch{}
			for e := 0; e < 4; e++ {
				fn := testFn()
				if e%2 == 1 {
					// Half pinned to a mismatched runtime: forced misses
					// race the claims.
					fn.Runtime = "firecracker"
				}
				batch.Creates = append(batch.Creates, proto.CreateSandboxRequest{
					SandboxID: base + core.SandboxID(e), Function: fn,
				})
			}
			_, _ = tr.Call(ctx, w.Addr(), proto.MethodCreateSandboxBatch, batch.Marshal())
			if i%2 == 0 {
				_ = killOne(tr, w.Addr(), base)
			} else {
				_ = w.CrashSandbox(base + 1)
			}
		})
	}
	// Invocations across the stable sandboxes.
	for g := 0; g < 2; g++ {
		g := g
		run(func(i int) {
			inv := proto.InvokeSandboxRequest{
				SandboxID: core.SandboxID(1 + (g*iters+i)%8), Function: "f", Payload: []byte("x"),
			}
			if _, err := tr.Call(ctx, w.Addr(), proto.MethodInvokeSandbox, inv.Marshal()); err != nil {
				t.Errorf("invoke: %v", err)
			}
		})
	}
	// Reads racing everything.
	run(func(int) {
		w.SandboxCount()
		w.ReadySandboxIDs()
		w.InFlight()
		w.utilization()
		_, _ = tr.Call(ctx, w.Addr(), proto.MethodListSandboxes, nil)
	})

	wg.Wait()

	if w.SandboxCount() < 8 {
		t.Errorf("SandboxCount = %d, want >= 8 (stable set lost)", w.SandboxCount())
	}
	if n := w.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after churn, want 0", n)
	}
	// The pool must converge back to its configured size once churn ends.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.Metrics().Gauge("prewarm_pool_size").Value() == 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := w.Metrics().Gauge("prewarm_pool_size").Value(); got != 4 {
		t.Errorf("prewarm pool = %d after churn, want 4", got)
	}
	if w.Metrics().Counter("prewarm_hits").Value() == 0 {
		t.Errorf("prewarm_hits = 0 — claims never exercised")
	}
	if w.Metrics().Counter("prewarm_misses").Value() == 0 {
		t.Errorf("prewarm_misses = 0 — mismatch path never exercised")
	}
}
