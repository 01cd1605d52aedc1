package controlplane

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/predictor"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// newPredictiveHarness builds a CP with the demand predictor on and the
// background loops parked, so tests drive Reconcile (and therefore
// prewarm-target pushes) explicitly against a deterministic timeline.
func newPredictiveHarness(t *testing.T) *cpHarness {
	t.Helper()
	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:              "cp0",
		Transport:         tr,
		DB:                db,
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
		DataPlaneTimeout:  time.Hour,
		PredictivePrewarm: true,
		Predictor: predictor.Config{
			Window: 50 * time.Millisecond,
			Lead:   20 * time.Millisecond,
		},
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	return &cpHarness{tr: tr, cp: cp, db: db}
}

// startNullWorker starts a real worker daemon over the null runtime with a
// pre-warm budget of three, so pushed targets show up as pool sizes.
func startNullWorker(t *testing.T, h *cpHarness, id core.NodeID, name string) *worker.Worker {
	t.Helper()
	cache := sandbox.NewImageCache()
	w := worker.New(worker.Config{
		Node: core.WorkerNode{
			ID: id, Name: name, IP: name, Port: 9000,
			CPUMilli: 10000, MemoryMB: 65536,
		},
		Addr:              name + ":9000",
		Runtime:           &sandbox.Null{Images: cache},
		Transport:         h.tr,
		ControlPlanes:     []string{"cp0"},
		HeartbeatInterval: 10 * time.Millisecond,
		Prewarm:           3,
		Cache:             cache,
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

// TestPredictivePrewarmPushAndRestartRepush drives the push protocol end
// to end: demand observed by the reconciler turns into a per-image target
// set, the set is pushed (generation-tagged) to the worker, the worker's
// heartbeat carries its image-cache digest back to the registry, and a
// worker that restarts mid-push — losing its applied targets — is
// re-pushed automatically because its fresh registration resets the
// acknowledged generation.
func TestPredictivePrewarmPushAndRestartRepush(t *testing.T) {
	h := newPredictiveHarness(t)
	w1 := startNullWorker(t, h, 1, "w1")
	startFakeDP(t, h.tr, "dp0:8000")
	reg := proto.RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: 1, IP: "dp0", Port: 8000}}
	h.call(t, proto.MethodRegisterDataPlane, reg.Marshal())

	fn := fnSpec("f")
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	report := proto.ScalingMetricReport{DataPlane: 1, Metrics: []core.ScalingMetric{
		{Function: "f", QueueDepth: 3, At: time.Now()},
	}}
	h.call(t, proto.MethodScalingMetric, report.Marshal())

	// First sweep stages creations (feeding the predictor) but pushes
	// nothing: no demand window has closed yet, so the target set is
	// still empty and workers stay in static mode.
	h.cp.Reconcile()
	if gen, _ := h.cp.PrewarmTargetSnapshot(); gen != 0 {
		t.Fatalf("prewarm generation before a window closed = %d, want 0", gen)
	}

	// After the demand window elapses, the next sweep computes the
	// per-image targets and pushes them to the (stale, gen-0) worker.
	time.Sleep(80 * time.Millisecond)
	h.cp.Reconcile()
	gen1, set1 := h.cp.PrewarmTargetSnapshot()
	if gen1 != 1 {
		t.Fatalf("prewarm generation after window close = %d, want 1", gen1)
	}
	if len(set1) != 1 || set1[0].Image != "img" || set1[0].Want != 3 {
		t.Fatalf("target set = %+v, want [{img 3}]", set1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if pools := w1.PrewarmPoolSizes(); w1.PrewarmGen() == gen1 && reflect.DeepEqual(pools, map[string]int{"img": 3}) {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("worker never applied the target push: generation %d, pools %v", w1.PrewarmGen(), w1.PrewarmPoolSizes())
		}
		time.Sleep(time.Millisecond)
	}

	// The worker's heartbeats report its image-cache digest (the pool's
	// base image and, since the push, "img"), which the registry folds
	// into the worker's utilization for cache-aware placement.
	wantHash := core.HashImage("img")
	deadline = time.Now().Add(5 * time.Second)
	for {
		ws := h.cp.getWorker(1)
		ws.mu.Lock()
		digest := append([]uint64(nil), ws.util.CacheDigest...)
		ws.mu.Unlock()
		if slices.Contains(digest, wantHash) {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("registry never saw the worker's cache digest (got %v)", digest)
		}
		time.Sleep(time.Millisecond)
	}

	// Restart: the daemon dies mid-push and comes back empty. Its
	// re-registration replaces the registry entry (acknowledged
	// generation 0), so the next sweep re-pushes without any target
	// change being required.
	w1.Stop()
	w2 := startNullWorker(t, h, 1, "w1")
	if gen := w2.PrewarmGen(); gen != 0 {
		t.Fatalf("restarted worker starts at generation %d, want 0", gen)
	}
	h.cp.Reconcile()
	genNow, _ := h.cp.PrewarmTargetSnapshot()
	if genNow < gen1 {
		t.Fatalf("prewarm generation regressed: %d < %d", genNow, gen1)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if w2.PrewarmGen() == genNow {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("restarted worker never re-pushed: at generation %d, want %d", w2.PrewarmGen(), genNow)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeartbeatBatchCarriesCacheDigest pins the relay-tier aggregation
// path: a relay's WorkerHeartbeatBatch carries each worker's utilization
// including its cache digest, and the registry stamps it exactly like a
// direct heartbeat would.
func TestHeartbeatBatchCarriesCacheDigest(t *testing.T) {
	h := newCPHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")

	digest := []uint64{5, 99, 1234}
	batch := proto.WorkerHeartbeatBatch{
		Relay: "relay0",
		Beats: []proto.WorkerHeartbeat{{
			Node: 1,
			Util: core.NodeUtilization{Node: 1, CPUMilliUsed: 700, CacheDigest: digest},
		}},
	}
	h.call(t, proto.MethodWorkerHeartbeatBatch, batch.Marshal())
	ws := h.cp.getWorker(1)
	ws.mu.Lock()
	got := append([]uint64(nil), ws.util.CacheDigest...)
	ws.mu.Unlock()
	if !reflect.DeepEqual(got, digest) {
		t.Fatalf("digest via relay batch = %v, want %v", got, digest)
	}

	// A later direct heartbeat replaces the digest wholesale.
	hb := proto.WorkerHeartbeat{Node: 1, Util: core.NodeUtilization{Node: 1, CacheDigest: []uint64{7}}}
	h.call(t, proto.MethodWorkerHeartbeat, hb.Marshal())
	ws.mu.Lock()
	got = append([]uint64(nil), ws.util.CacheDigest...)
	ws.mu.Unlock()
	if !reflect.DeepEqual(got, []uint64{7}) {
		t.Fatalf("digest via direct heartbeat = %v, want [7]", got)
	}
}
