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
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// TestTCPEmulatedFleet drives the control plane's striped worker
// registry at fleet scale over the real TCP stack: a 256-worker
// emulated fleet registers in one storm, serves a cold-start burst
// through the data plane, survives a 25% correlated worker failure
// (endpoints drained, capacity re-created on survivors, invocations
// still completing), and leaves the fleet telemetry — fleet_size,
// health_sweep_ms, reg_lock_* — populated.
func TestTCPEmulatedFleet(t *testing.T) {
	const (
		fleetSize = 256
		burst     = 256
	)
	tr := transport.NewTCP()
	t.Cleanup(func() { tr.Close() })

	cp := controlplane.New(controlplane.Config{
		Addr:              "127.0.0.1:0",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		NoDownscaleWindow: time.Minute, // the burst must not scale down mid-test
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	cpAddr := cp.Addr()

	dp := dataplane.New(dataplane.Config{
		ID:             1,
		Addr:           "127.0.0.1:0",
		Transport:      tr,
		ControlPlanes:  []string{cpAddr},
		MetricInterval: 15 * time.Millisecond,
		QueueTimeout:   20 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	dpAddr := dp.Addr()

	fl := fleet.New(fleet.Config{
		Size:              fleetSize,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		Loopback:          true, // real TCP listeners, ports bound at start
		HeartbeatInterval: 250 * time.Millisecond,
		Handler: func(p []byte) ([]byte, error) {
			return append([]byte("fleet:"), p...), nil
		},
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Stop)
	if got := cp.WorkerCount(); got != fleetSize {
		t.Fatalf("WorkerCount after registration storm = %d, want %d", got, fleetSize)
	}

	lb := frontend.New(frontend.Config{Transport: tr, DataPlanes: []string{dpAddr}})

	// Cold-start burst: 0 → 256 replicas across the fleet.
	fn := core.Function{Name: "fleetburst", Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = burst
	fn.Scaling.StableWindow = time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatalf("register: %v", err)
	}
	waitScale := func(what string, min int) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			ready, _ := cp.FunctionScale("fleetburst")
			if ready >= min {
				return
			}
			if time.Now().After(deadline) {
				ready, creating := cp.FunctionScale("fleetburst")
				t.Fatalf("%s stuck: ready=%d creating=%d, want >= %d", what, ready, creating, min)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitScale("burst", burst)
	if got := fl.SandboxCount(); got < burst {
		t.Errorf("fleet hosts %d sandboxes, want >= %d", got, burst)
	}

	invokeAll := func(tag string, n int) {
		t.Helper()
		var wg sync.WaitGroup
		errCh := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := lb.Invoke(ctx, &proto.InvokeRequest{
					Function: "fleetburst", Payload: []byte(fmt.Sprintf("%s-%d", tag, i)),
				})
				if err != nil {
					errCh <- fmt.Errorf("invoke %s-%d: %w", tag, i, err)
					return
				}
				if want := fmt.Sprintf("fleet:%s-%d", tag, i); string(resp.Body) != want {
					errCh <- fmt.Errorf("invoke %s-%d: body %q, want %q", tag, i, resp.Body, want)
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
	}
	invokeAll("pre", 64)

	// Correlated failure: a quarter of the fleet crashes at once.
	preFailReady, _ := cp.FunctionScale("fleetburst")
	stopped := fl.StopFraction(0.25)
	survivors := fleetSize - len(stopped)

	// Detection: the health monitor fails exactly the victims.
	deadline := time.Now().Add(60 * time.Second)
	for cp.WorkerCount() != survivors {
		if time.Now().After(deadline) {
			t.Fatalf("WorkerCount = %d, want %d after correlated failure", cp.WorkerCount(), survivors)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Drain: the victims' endpoints leave the function's ready set, then
	// the autoscaler re-creates capacity on survivors back to the burst
	// target (the autoscale loop runs every 25 ms here).
	waitScale("post-failure recovery", burst)
	postFailReady, _ := cp.FunctionScale("fleetburst")
	if postFailReady < burst {
		t.Errorf("ready = %d after recovery, want >= %d (pre-failure %d)", postFailReady, burst, preFailReady)
	}
	deadline = time.Now().Add(60 * time.Second)
	for fl.SandboxCount() < burst {
		if time.Now().After(deadline) {
			t.Fatalf("surviving fleet hosts %d sandboxes, want >= %d", fl.SandboxCount(), burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Invocations complete against the recovered endpoint set.
	invokeAll("post", 64)

	// Fleet telemetry: the registry and health monitor must have
	// observed the whole story.
	m := cp.Metrics()
	if got := m.Gauge("fleet_size").Value(); got != fleetSize {
		t.Errorf("fleet_size = %d, want %d", got, fleetSize)
	}
	if n := m.Histogram("health_sweep_ms").Count(); n == 0 {
		t.Errorf("health_sweep_ms never observed — health monitor idle")
	}
	if n := m.Counter("worker_failures_detected").Value(); n != int64(len(stopped)) {
		t.Errorf("worker_failures_detected = %d, want %d", n, len(stopped))
	}
}
