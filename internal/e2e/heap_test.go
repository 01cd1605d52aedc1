package e2e

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/race"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// maxHeapBytesPerColdStart is what one cold start → scale-to-zero cycle
// may leave on the heap of a cluster that has reached its steady state.
const maxHeapBytesPerColdStart = 32

// maxAllocsPerColdStart is what one cold start → scale-to-zero cycle may
// allocate, every tier and the harness's own invocation and polling
// included: the median of 20 runs plus 10 %. Before the per-replica
// endpoint sender and the in-place endpoint codec it read 91–94; with
// them, 49–55 (median 53.8 over 10 runs); with one long-lived sender per
// peer and queued invocations that dispatch themselves, 43.8–49.6
// (median 47.1 over 20 runs), but up to 51.7 on 2 CPUs shared with
// three busy processes, where the data plane sends about one cold report
// per cold start. With cold reports that keep their buffers, encode into
// pooled frames and leave their decisions on the stack, 46.4–48.0 there.
const maxAllocsPerColdStart = 52

// TestColdStartHeapIsFlat is the heap gate: a singleton cluster (one
// control plane, data plane, worker and front end) runs heapWarmRounds
// rounds of cold starts, each followed by scale to zero, and then 8 times
// as many more; the live heap after the second batch may exceed the one
// after the first by less than maxHeapBytesPerColdStart per cycle.
//
// What the cold path keys by function, sandbox, worker or data plane, and
// the event that removes each entry:
//
// Control plane:
//   - the function shards' fns (by function): deregistration;
//   - the shards' active lists (by function): the decision that finds the
//     function idle, or deregistration;
//   - functionState.sandboxes (by sandbox): the kill scaleStep decides, a
//     crash report, or its worker's failure; the map itself goes when the
//     function goes idle;
//   - functionState.demand (by data plane): dropDemand, when the data
//     plane fails or deregisters, and the whole slice when the function
//     goes idle;
//   - the scaler's samples: a fixed ring of buckets, dropped with the
//     scaler when the function goes idle;
//   - the worker shards' workers (by worker): dead-worker GC;
//   - every registry histogram: fixed-size buckets;
//   - each data plane's owed set (by function): emptied by its sender,
//     dropped when the sweep prunes the replica; the sender's batch names
//     and payload buffer are capped at maxBatch updates;
//   - each worker's queued creates and kills (by sandbox): emptied by its
//     sender, whose own batch is cleared after every send.
//
// Data plane:
//   - the function registry (by function), with each function's queue and
//     endpoints: deregistration; an endpoint (by sandbox) leaves with the
//     control plane's removal update, and an empty endpoint set holds only
//     the shared empty snapshot; the queue drains as sandboxes come up;
//   - the worker address table (by worker): an entry is replaced when its
//     worker's address changes, so it holds one per worker ID;
//   - the cold-mark list: emptied by every cold report;
//   - the active list (by function): pruned after every periodic report.
//
// Worker:
//   - functions and the ready table (by sandbox): killSandbox;
//   - queued ready events: emptied by the flusher, whose own batch is
//     cleared after every report;
//   - pre-warm pools, pending counts and targets (by image).
//
// Sandbox runtime: instances (by sandbox) leave on Kill, which keeps no
// tombstone; the network pool's free list is capped at its target size;
// the image cache is keyed by image.
//
// Front end: downTil (by data plane) entries leave when their cooldown
// runs out.
func TestColdStartHeapIsFlat(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes heap sizes")
	}
	const (
		heapWarmRounds  = 4
		heapGrowthRound = 8 * heapWarmRounds
	)
	round := startColdCycles(t)
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for i := 0; i < heapWarmRounds; i++ {
		round()
	}
	before := liveHeap()
	for i := 0; i < heapGrowthRound; i++ {
		round()
	}
	after := liveHeap()
	cycles := heapGrowthRound * coldCycleFunctions
	perCycle := (float64(after) - float64(before)) / float64(cycles)
	t.Logf("live heap %d → %d B over %d cold starts: %.1f B each", before, after, cycles, perCycle)
	if perCycle >= maxHeapBytesPerColdStart {
		t.Errorf("the live heap grows %.1f B per cold start, want under %d", perCycle, maxHeapBytesPerColdStart)
	}
}

// TestColdStartAllocations is the cold path's allocation gate, on
// TestColdStartHeapIsFlat's cluster: the heap allocations of one cold
// start → scale-to-zero cycle, counted over whole rounds.
func TestColdStartAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const warmRounds, rounds = 2, 8
	round := startColdCycles(t)
	for i := 0; i < warmRounds; i++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	cycles := rounds * coldCycleFunctions
	perCycle := float64(after.Mallocs-before.Mallocs) / float64(cycles)
	t.Logf("%.1f allocations per cold start over %d cold starts", perCycle, cycles)
	if perCycle > maxAllocsPerColdStart {
		t.Errorf("a cold start allocates %.1f times, want at most %d", perCycle, maxAllocsPerColdStart)
	}
}

// coldCycleFunctions is how many functions, hence cold starts, one round
// of startColdCycles has.
const coldCycleFunctions = 256

// startColdCycles starts a singleton cluster (one control plane, data
// plane, worker and front end) with coldCycleFunctions functions at zero,
// and returns a round: a cold start of every function, then scale to zero
// on every tier.
//
// The control plane runs on a virtual clock, so the autoscaler's windows
// pass by advancing it and each scale to zero is one explicit Reconcile;
// the other tiers run on the wall clock, with loop periods short enough
// (data plane reports) or long enough (heartbeats, failure detectors) not
// to matter.
func startColdCycles(t *testing.T) (round func()) {
	t.Helper()
	const window = 200 * time.Millisecond
	vclk := clock.NewVirtual(time.Unix(1_000_000, 0))
	tr := transport.NewInProc()
	const cpAddr, dpAddr, wAddr = "cp:7000", "dp:8000", "10.9.0.1:9000"

	cp := controlplane.New(controlplane.Config{
		Addr:              cpAddr,
		Transport:         tr,
		DB:                store.NewMemory(),
		Clock:             vclk,
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
		NoDownscaleWindow: time.Nanosecond,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	dp := dataplane.New(dataplane.Config{
		ID:                1,
		Addr:              dpAddr,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		MetricInterval:    time.Millisecond,
		HeartbeatInterval: time.Hour,
		QueueTimeout:      10 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	cache := sandbox.NewImageCache()
	cache.Prefetch("img")
	images := worker.NewImageRegistry()
	images.Register("img", func(p []byte) ([]byte, error) { return p, nil })
	w := worker.New(worker.Config{
		Node:              core.WorkerNode{ID: 1, Name: "w1", IP: "10.9.0.1", Port: 9000, CPUMilli: 1_000_000, MemoryMB: 4_000_000},
		Addr:              wAddr,
		Runtime:           sandbox.NewContainerd(sandbox.Config{NodeIP: [4]byte{10, 9, 0, 1}, Images: cache, Seed: 1}),
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		HeartbeatInterval: time.Hour,
		Images:            images,
		Cache:             cache,
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	lb := frontend.New(frontend.Config{Transport: tr, DataPlanes: []string{dpAddr}})

	names := make([]string, coldCycleFunctions)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	for i := range names {
		names[i] = fmt.Sprintf("fn-%04d", i)
		fn := core.Function{Name: names[i], Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
		fn.Scaling.StableWindow, fn.Scaling.PanicWindow, fn.Scaling.ScaleToZeroGrace = window, window/4, window/2
		if _, err := tr.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			t.Fatal(err)
		}
	}

	return func() {
		// Every function is at zero, so each invocation is a cold start.
		var wg sync.WaitGroup
		errs := make(chan error, len(names))
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				resp, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: name, Payload: []byte("ping")})
				if err == nil && !resp.ColdStart {
					err = fmt.Errorf("%s: warm invocation, want a cold start", name)
				}
				if err != nil {
					errs <- err
				}
			}(name)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Scale to zero: let the window pass and decide until every
		// sandbox is gone from every tier (the data plane's zero-demand
		// reports arrive on its 1 ms period).
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			vclk.Advance(window)
			cp.Reconcile()
			if w.SandboxCount() == 0 && allScaledToZero(cp, dp, names) {
				// The control plane charges each placement to the worker
				// until a heartbeat reports what the worker really uses.
				w.SendHeartbeat()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("scale to zero did not finish: %d sandboxes left on the worker", w.SandboxCount())
			}
		}
	}
}

func allScaledToZero(cp *controlplane.ControlPlane, dp *dataplane.DataPlane, names []string) bool {
	for _, name := range names {
		if ready, creating := cp.FunctionScale(name); ready+creating != 0 || dp.EndpointCount(name) != 0 {
			return false
		}
	}
	return true
}
