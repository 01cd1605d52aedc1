package e2e

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/fleet"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// TestTCPMultiDataPlaneFailover drives the dynamic data plane tier over
// the real TCP stack: 4 data plane replicas register and heartbeat, the
// front end syncs its membership from the control plane, and killing the
// busiest replica mid-burst loses no accepted invocation — sync requests
// fail over to survivors, the control plane prunes the dead replica from
// its broadcast fan-out set within a health sweep, the front end's
// membership shrinks with it, and async tasks persisted on survivors
// drain to completion.
func TestTCPMultiDataPlaneFailover(t *testing.T) {
	const (
		replicas = 4
		workers  = 8
		numFns   = 8
		burst    = 200
	)
	tr := transport.NewTCP()
	t.Cleanup(func() { tr.Close() })

	cp := controlplane.New(controlplane.Config{
		Addr:              "127.0.0.1:0",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DataPlaneTimeout:  time.Second,
		NoDownscaleWindow: time.Minute,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	cpAddr := cp.Addr()

	dps := fleet.NewDataPlanes(fleet.DataPlanesConfig{
		Count:             replicas,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		Loopback:          true,
		Persistent:        true, // accepted async tasks survive replica crashes
		HeartbeatInterval: 100 * time.Millisecond,
		MetricInterval:    15 * time.Millisecond,
		QueueTimeout:      30 * time.Second,
	})
	if err := dps.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dps.Stop)
	if got := cp.DataPlaneCount(); got != replicas {
		t.Fatalf("DataPlaneCount after replica registration = %d, want %d", got, replicas)
	}

	fl := fleet.New(fleet.Config{
		Size:              workers,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		Loopback:          true,
		HeartbeatInterval: 250 * time.Millisecond,
		Handler: func(p []byte) ([]byte, error) {
			return append([]byte("multidp:"), p...), nil
		},
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Stop)

	// Front end with dynamic membership: no static replica list at all.
	lb := frontend.New(frontend.Config{
		Transport:          tr,
		ControlPlanes:      []string{cpAddr},
		MembershipInterval: 100 * time.Millisecond,
		FailureCooldown:    300 * time.Millisecond,
	})
	if err := lb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Stop)
	if got := len(lb.Replicas()); got != replicas {
		t.Fatalf("front-end membership = %d replicas after first sync, want %d", got, replicas)
	}

	// Several pre-scaled functions, so homes spread across the replica
	// set and the burst mostly rides warm paths.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fnName := func(i int) string { return fmt.Sprintf("mdp-%d", i%numFns) }
	for i := 0; i < numFns; i++ {
		fn := core.Function{Name: fnName(i), Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
		fn.Scaling.MinScale = 1
		fn.Scaling.StableWindow = time.Minute
		if _, err := tr.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			t.Fatalf("register %s: %v", fnName(i), err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; i < numFns; i++ {
		for {
			if ready, _ := cp.FunctionScale(fnName(i)); ready >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("scale-up of %s stuck", fnName(i))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	invoke := func(i int) error {
		resp, err := lb.Invoke(ctx, &proto.InvokeRequest{
			Function: fnName(i), Payload: []byte(fmt.Sprintf("b-%d", i)),
		})
		if err != nil {
			return fmt.Errorf("invoke b-%d: %w", i, err)
		}
		if want := fmt.Sprintf("multidp:b-%d", i); string(resp.Body) != want {
			return fmt.Errorf("invoke b-%d: body %q, want %q", i, resp.Body, want)
		}
		return nil
	}

	// Warm-up pass, which also reveals which replica homes the most
	// traffic — that one is the kill victim, so the mid-burst crash
	// provably lands on live requests.
	for i := 0; i < numFns; i++ {
		if err := invoke(i); err != nil {
			t.Fatal(err)
		}
	}
	victim, busiest := -1, int64(-1)
	for i, dp := range dps.DPs() {
		if n := dp.Metrics().Counter("invocations").Value(); n > busiest {
			victim, busiest = i, n
		}
	}
	if busiest < 1 {
		t.Fatalf("warm-up traffic reached no replica")
	}

	// Sync burst with the victim killed in the middle: every invocation
	// the front end accepted must complete via failover.
	var wg sync.WaitGroup
	errCh := make(chan error, burst)
	launched := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == burst/2 {
				close(launched)
			}
			if err := invoke(i); err != nil {
				errCh <- err
			}
		}(i)
	}
	<-launched
	dps.StopOne(victim) // kill the busiest replica mid-burst
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The control plane prunes the dead replica from the fan-out set
	// within one health sweep past the DP timeout...
	deadline = time.Now().Add(30 * time.Second)
	for cp.DataPlaneCount() != replicas-1 {
		if time.Now().After(deadline) {
			t.Fatalf("DataPlaneCount = %d, want %d after replica kill", cp.DataPlaneCount(), replicas-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := cp.Metrics().Counter("dataplane_failures_detected").Value(); n < 1 {
		t.Errorf("dataplane_failures_detected = %d, want >= 1", n)
	}
	// ...and the front end's membership follows.
	deadline = time.Now().Add(10 * time.Second)
	for len(lb.Replicas()) != replicas-1 {
		if time.Now().After(deadline) {
			t.Fatalf("front-end membership = %v, want %d replicas", lb.Replicas(), replicas-1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Async tier: tasks accepted after the kill land on survivors,
	// persist, and drain to completion.
	const asyncN = 24
	for i := 0; i < asyncN; i++ {
		resp, err := lb.Invoke(ctx, &proto.InvokeRequest{
			Function: fnName(i), Async: true, Payload: []byte(fmt.Sprintf("a-%d", i)),
		})
		if err != nil {
			t.Fatalf("async accept a-%d: %v", i, err)
		}
		if string(resp.Body) != "accepted" {
			t.Fatalf("async accept a-%d: body %q", i, resp.Body)
		}
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		var completed int64
		pending := 0
		for i, dp := range dps.DPs() {
			if i == victim {
				continue // the victim is down; its metrics are frozen
			}
			completed += dp.Metrics().Counter("async_completed").Value()
			pending += dp.PendingAsync()
		}
		if completed >= asyncN && pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async tasks not drained on survivors: completed=%d pending=%d", completed, pending)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The failover telemetry must have observed the kill.
	if n := lb.Metrics().Counter("dataplane_failovers").Value(); n < 1 {
		t.Errorf("dataplane_failovers = %d, want >= 1", n)
	}
}
