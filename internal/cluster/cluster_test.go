package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
)

func testOptions() Options {
	return Options{
		ControlPlanes:     3,
		DataPlanes:        2,
		Workers:           3,
		Runtime:           "containerd",
		LatencyScale:      0, // no simulated sandbox latency in unit tests
		AutoscaleInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		MetricInterval:    10 * time.Millisecond,
		NoDownscaleWindow: 100 * time.Millisecond,
		QueueTimeout:      5 * time.Second,
	}
}

func testFunction(name string) core.Function {
	fn := core.Function{
		Name:    name,
		Image:   "registry.local/" + name + ":latest",
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	fn.Scaling.StableWindow = 2 * time.Second
	fn.Scaling.PanicWindow = 200 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = time.Second
	return fn
}

func mustCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New cluster: %v", err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestClusterColdAndWarmInvoke(t *testing.T) {
	c := mustCluster(t, testOptions())
	if err := c.RegisterFunction(testFunction("hello")); err != nil {
		t.Fatalf("register: %v", err)
	}
	payload := []byte("ping")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.Invoke(ctx, "hello", payload)
	if err != nil {
		t.Fatalf("cold invoke: %v", err)
	}
	if !resp.ColdStart {
		t.Errorf("first invocation should be a cold start")
	}
	if !bytes.Equal(resp.Body, payload) {
		t.Errorf("body = %q, want %q", resp.Body, payload)
	}
	// Second invocation should hit the warm sandbox.
	resp2, err := c.Invoke(ctx, "hello", payload)
	if err != nil {
		t.Fatalf("warm invoke: %v", err)
	}
	if resp2.ColdStart {
		t.Errorf("second invocation should be warm")
	}
}

func TestClusterUnknownFunction(t *testing.T) {
	c := mustCluster(t, testOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Invoke(ctx, "nope", nil); err == nil {
		t.Fatalf("invoking an unregistered function should fail")
	}
}

func TestClusterConcurrentColdStarts(t *testing.T) {
	c := mustCluster(t, testOptions())
	const fns = 8
	for i := 0; i < fns; i++ {
		if err := c.RegisterFunction(testFunction(fmt.Sprintf("fn-%d", i))); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, fns*4)
	for i := 0; i < fns; i++ {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				if _, err := c.Invoke(ctx, fmt.Sprintf("fn-%d", i), []byte("x")); err != nil {
					errs <- err
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("invoke: %v", err)
	}
}

func TestClusterAutoscaleUpUnderLoad(t *testing.T) {
	c := mustCluster(t, testOptions())
	fn := testFunction("busy")
	if err := c.RegisterFunction(fn); err != nil {
		t.Fatalf("register: %v", err)
	}
	c.RegisterWorkload(fn.Image, 1.0)
	// 16 concurrent long-ish requests at concurrency limit 1 per sandbox
	// should push the autoscaler well past one sandbox.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			_, err := c.Invoke(ctx, "busy", ExecPayload(150*time.Millisecond))
			if err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	if cp := c.Leader(); cp != nil {
		ready, _ := cp.FunctionScale("busy")
		if ready < 2 {
			t.Errorf("expected scale-out beyond 1 sandbox, got %d", ready)
		}
	}
}

func TestClusterScaleToZero(t *testing.T) {
	opts := testOptions()
	c := mustCluster(t, opts)
	fn := testFunction("ephemeral")
	fn.Scaling.StableWindow = 300 * time.Millisecond
	fn.Scaling.PanicWindow = 50 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = 100 * time.Millisecond
	if err := c.RegisterFunction(fn); err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Invoke(ctx, "ephemeral", nil); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// No leader for a moment (an election) is not what this tests.
		if cp := c.Leader(); cp != nil {
			if ready, creating := cp.FunctionScale("ephemeral"); ready == 0 && creating == 0 {
				return // scaled to zero
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("function did not scale to zero")
}

// TestClusterScaleFromZeroWaitsForNoTimer runs a cluster whose metric
// report and autoscale tick come round once an hour: a cold invocation is
// served all the same, because the data plane reports the function the
// moment the invocation queues and the control plane places the sandbox
// while handling that report. With only the timers it would wait out the
// queue timeout.
func TestClusterScaleFromZeroWaitsForNoTimer(t *testing.T) {
	opts := testOptions()
	opts.AutoscaleInterval = time.Hour
	opts.MetricInterval = time.Hour
	opts.QueueTimeout = 2 * time.Second
	c := mustCluster(t, opts)
	if err := c.RegisterFunction(testFunction("cold")); err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := c.Invoke(ctx, "cold", []byte("ping"))
	if err != nil {
		t.Fatalf("cold invoke with both timers an hour away: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("cold invoke took %v, want under 1s", took)
	}
	if !resp.ColdStart || !bytes.Equal(resp.Body, []byte("ping")) {
		t.Errorf("cold = %v, body = %q", resp.ColdStart, resp.Body)
	}
}

func TestClusterMinScaleKeepsWarm(t *testing.T) {
	c := mustCluster(t, testOptions())
	fn := testFunction("pinned")
	fn.Scaling.MinScale = 2
	if err := c.RegisterFunction(fn); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := c.AwaitScale("pinned", 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// An invocation now must be warm: sandboxes already exist.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Invoke(ctx, "pinned", nil)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if resp.ColdStart {
		t.Errorf("invocation with MinScale=2 warm pool should not be a cold start")
	}
}

func TestClusterAsyncInvoke(t *testing.T) {
	c := mustCluster(t, testOptions())
	fn := testFunction("asyncfn")
	if err := c.RegisterFunction(fn); err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.InvokeAsync(ctx, "asyncfn", []byte("later")); err != nil {
		t.Fatalf("async invoke: %v", err)
	}
	// The async loop should eventually execute it, creating a sandbox.
	if err := c.AwaitScale("asyncfn", 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterDeregisterFunction(t *testing.T) {
	c := mustCluster(t, testOptions())
	fn := testFunction("gone")
	if err := c.RegisterFunction(fn); err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Invoke(ctx, "gone", nil); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if err := c.DeregisterFunction("gone"); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	// Give the broadcast a moment to land, then invoking must fail.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Invoke(ctx, "gone", nil); err == nil {
		t.Fatalf("invoking a deregistered function should fail")
	}
}

func TestClusterFirecrackerRuntime(t *testing.T) {
	opts := testOptions()
	opts.Runtime = "firecracker"
	c := mustCluster(t, opts)
	if err := c.RegisterFunction(testFunction("fc")); err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Invoke(ctx, "fc", []byte("vm")); err != nil {
		t.Fatalf("invoke: %v", err)
	}
}

func TestExecPayloadRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 1500 * time.Millisecond, time.Hour} {
		if got := DecodeExecPayload(ExecPayload(d)); got != d {
			t.Errorf("round trip %v -> %v", d, got)
		}
	}
	if DecodeExecPayload(nil) != 0 {
		t.Errorf("nil payload should decode to 0")
	}
}
