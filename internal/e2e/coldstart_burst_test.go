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
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// burstStack is a full Dirigent deployment over real TCP with several
// workers, sized for burst cold-start testing: control plane, one data
// plane, W prewarmed workers, and the front-end LB.
type burstStack struct {
	tr      *transport.TCP
	cp      *controlplane.ControlPlane
	dp      *dataplane.DataPlane
	workers []*worker.Worker
	lb      *frontend.LB
	cpAddr  string
	images  *worker.ImageRegistry
}

func startBurstStack(t *testing.T, numWorkers, prewarm int) *burstStack {
	t.Helper()
	tr := transport.NewTCP()
	t.Cleanup(func() { tr.Close() })
	s := &burstStack{tr: tr}

	// Every component listens on port 0 and is reached at the address it
	// reports once started.
	cp := controlplane.New(controlplane.Config{
		Addr:              "127.0.0.1:0",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  3 * time.Second,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	s.cp, s.cpAddr = cp, cp.Addr()
	t.Cleanup(cp.Stop)

	dp := dataplane.New(dataplane.Config{
		ID:             1,
		Addr:           "127.0.0.1:0",
		Transport:      tr,
		ControlPlanes:  []string{s.cpAddr},
		MetricInterval: 15 * time.Millisecond,
		QueueTimeout:   20 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	s.dp = dp
	t.Cleanup(dp.Stop)

	s.images = worker.NewImageRegistry()
	for i := 0; i < numWorkers; i++ {
		w := worker.New(worker.Config{
			Node: core.WorkerNode{
				ID: core.NodeID(i + 1), Name: fmt.Sprintf("bw%d", i+1),
				IP: "127.0.0.1", CPUMilli: 1 << 20, MemoryMB: 1 << 20,
			},
			Addr: "127.0.0.1:0",
			Runtime: sandbox.NewContainerd(sandbox.Config{
				LatencyScale: 0, NodeIP: [4]byte{127, 0, 0, 1}, Seed: int64(i + 1),
			}),
			Transport:         tr,
			ControlPlanes:     []string{s.cpAddr},
			HeartbeatInterval: 50 * time.Millisecond,
			Images:            s.images,
			Prewarm:           prewarm,
		})
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		s.workers = append(s.workers, w)
		t.Cleanup(w.Stop)
	}

	s.lb = frontend.New(frontend.Config{Transport: tr, DataPlanes: []string{dp.Addr()}})
	return s
}

// TestTCPBurstColdStart drives a 0→64 replica burst across 4 prewarmed
// workers over the real TCP stack: every replica must come up, every
// invocation must complete, and the batching + pre-warm telemetry must
// show the pipelined path actually ran (batched creates, coalesced
// endpoint fan-out, pre-warm claims).
func TestTCPBurstColdStart(t *testing.T) {
	const (
		numWorkers = 4
		burst      = 64
		prewarm    = 4
	)
	s := startBurstStack(t, numWorkers, prewarm)
	s.images.Register("img", func(p []byte) ([]byte, error) {
		return append([]byte("burst:"), p...), nil
	})

	fn := core.Function{Name: "burst", Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = burst
	fn.Scaling.StableWindow = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := s.tr.Call(ctx, s.cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatalf("register: %v", err)
	}

	// 0 → 64 replicas.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready, _ := s.cp.FunctionScale("burst")
		if ready >= burst {
			break
		}
		if time.Now().After(deadline) {
			creating := 0
			ready, creating = s.cp.FunctionScale("burst")
			t.Fatalf("burst stuck: ready=%d creating=%d", ready, creating)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every replica landed on a worker and every invocation completes.
	total := 0
	for _, w := range s.workers {
		total += w.SandboxCount()
	}
	if total < burst {
		t.Errorf("workers host %d sandboxes, want >= %d", total, burst)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.lb.Invoke(ctx, &proto.InvokeRequest{
				Function: "burst", Payload: []byte(fmt.Sprintf("p%d", i)),
			})
			if err != nil {
				errCh <- fmt.Errorf("invoke %d: %w", i, err)
				return
			}
			if string(resp.Body) != fmt.Sprintf("burst:p%d", i) {
				errCh <- fmt.Errorf("invoke %d: body %q", i, resp.Body)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Batching telemetry: the sweep must have packed multiple creations
	// into per-worker RPCs and coalesced the endpoint fan-out.
	cpm := s.cp.Metrics()
	if n := cpm.Histogram("create_batch_size").Count(); n == 0 {
		t.Errorf("create_batch_size histogram empty — batched path never ran")
	}
	if max := cpm.Histogram("create_batch_size").Max(); max < 2 {
		t.Errorf("create_batch_size max = %.0f, want >= 2 (burst should batch)", max)
	}
	if n := cpm.Histogram("endpoint_fanout_batch_size").Count(); n == 0 {
		t.Errorf("endpoint_fanout_batch_size histogram empty — coalesced fan-out never ran")
	}
	if n := cpm.Histogram("cold_start_sched_ms").Count(); n < burst {
		t.Errorf("cold_start_sched_ms observed %d samples, want >= %d", n, burst)
	}

	// Pre-warm telemetry: with 4×4 pooled sandboxes, a 64-burst must
	// claim some of them.
	var hits, readyBatches int64
	for _, w := range s.workers {
		hits += w.Metrics().Counter("prewarm_hits").Value()
		readyBatches += int64(w.Metrics().Histogram("ready_batch_size").Count())
	}
	if hits == 0 {
		t.Errorf("prewarm_hits = 0 across all workers, want > 0")
	}
	if readyBatches == 0 {
		t.Errorf("ready_batch_size never observed — readiness reporting broken")
	}
}
