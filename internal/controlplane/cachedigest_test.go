package controlplane

import (
	"slices"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/sandbox"
	"dirigent/internal/worker"
)

// TestWorkerHeartbeatCarriesCacheDigest pins the direct path cache-aware
// placement reads: a real worker daemon's pre-warm pool pulls its base
// image into the node's cache, and the worker's heartbeats carry that
// cache's digest into the registry.
func TestWorkerHeartbeatCarriesCacheDigest(t *testing.T) {
	h := newCPHarness(t)
	cache := sandbox.NewImageCache()
	w := worker.New(worker.Config{
		Node: core.WorkerNode{
			ID: 1, Name: "w1", IP: "w1", Port: 9000,
			CPUMilli: 10000, MemoryMB: 65536,
		},
		Addr:              "w1:9000",
		Runtime:           &sandbox.Null{Images: cache},
		Transport:         h.tr,
		ControlPlanes:     []string{"cp0"},
		HeartbeatInterval: 10 * time.Millisecond,
		Prewarm:           1,
		PrewarmImage:      "img",
		Cache:             cache,
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)

	want := core.HashImage("img")
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := h.cp.getWorker(1)
		ws.mu.Lock()
		digest := append([]uint64(nil), ws.util.CacheDigest...)
		ws.mu.Unlock()
		if slices.Contains(digest, want) {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("registry never saw the worker's cache digest (got %v)", digest)
		}
		time.Sleep(time.Millisecond)
	}
}
