package controlplane

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
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
