package dataplane

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// fakeCP accepts data plane registration and collects metric reports.
type fakeCP struct {
	mu      sync.Mutex
	reports []proto.ScalingMetricReport
	regs    []core.DataPlane
	// hold, when set, keeps a metric report's call open (after recording
	// the report) until the channel is closed.
	hold chan struct{}
}

func startFakeCP(t *testing.T, tr *transport.InProc, addr string) *fakeCP {
	t.Helper()
	cp := &fakeCP{}
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		var hold chan struct{}
		cp.mu.Lock()
		switch method {
		case proto.MethodRegisterDataPlane:
			req, err := proto.UnmarshalRegisterDataPlaneRequest(payload)
			if err != nil {
				cp.mu.Unlock()
				return nil, err
			}
			cp.regs = append(cp.regs, req.DataPlane)
		case proto.MethodScalingMetric:
			rep, err := proto.UnmarshalScalingMetricReport(payload)
			if err != nil {
				cp.mu.Unlock()
				return nil, err
			}
			cp.reports = append(cp.reports, *rep)
			hold = cp.hold
		}
		cp.mu.Unlock()
		if hold != nil {
			<-hold
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return cp
}

// fakeSandboxHost serves wn.InvokeSandbox with a configurable handler.
type fakeSandboxHost struct {
	mu       sync.Mutex
	inflight int
	maxSeen  int
	delay    time.Duration
}

func startSandboxHost(t *testing.T, tr *transport.InProc, addr string, delay time.Duration) *fakeSandboxHost {
	t.Helper()
	h := &fakeSandboxHost{delay: delay}
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		if method != proto.MethodInvokeSandbox {
			return nil, fmt.Errorf("unexpected method %s", method)
		}
		req, err := proto.UnmarshalInvokeSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.inflight++
		if h.inflight > h.maxSeen {
			h.maxSeen = h.inflight
		}
		h.mu.Unlock()
		if h.delay > 0 {
			time.Sleep(h.delay)
		}
		h.mu.Lock()
		h.inflight--
		h.mu.Unlock()
		return append([]byte("done:"), req.Payload...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return h
}

func testDP(t *testing.T, tr *transport.InProc) *DataPlane {
	t.Helper()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   2 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	return dp
}

func pushFunction(t *testing.T, tr *transport.InProc, dpAddr, name string) {
	t.Helper()
	pushFunctions(t, tr, dpAddr, name)
}

// pushFunctions replaces the data plane's function cache with names.
func pushFunctions(t *testing.T, tr *transport.InProc, dpAddr string, names ...string) {
	t.Helper()
	var list proto.FunctionList
	for _, name := range names {
		list.Functions = append(list.Functions, core.Function{
			Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig(),
		})
	}
	if _, err := tr.Call(context.Background(), dpAddr, proto.MethodAddFunction, list.Marshal()); err != nil {
		t.Fatal(err)
	}
}

// endpointsOf wraps one function's update as the batch of one the data
// plane accepts.
func endpointsOf(update proto.EndpointUpdate) []byte {
	batch := proto.EndpointUpdateBatch{Updates: []proto.EndpointUpdate{update}}
	return batch.Marshal()
}

func pushEndpoints(t *testing.T, tr *transport.InProc, dpAddr, fn string, ids []core.SandboxID, hostAddr string) {
	t.Helper()
	update := proto.EndpointUpdate{Function: fn}
	for _, id := range ids {
		update.Endpoints = append(update.Endpoints, proto.SandboxInfo{
			ID: id, Function: fn, Node: 1, Addr: hostAddr, State: core.SandboxReady,
		})
	}
	if _, err := tr.Call(context.Background(), dpAddr, proto.MethodUpdateEndpointsBatch, endpointsOf(update)); err != nil {
		t.Fatal(err)
	}
}

func invoke(tr *transport.InProc, dpAddr, fn string, payload []byte) (*proto.InvokeResponse, error) {
	req := proto.InvokeRequest{Function: fn, Payload: payload}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	respB, err := tr.Call(ctx, dpAddr, proto.MethodInvoke, req.Marshal())
	if err != nil {
		return nil, err
	}
	return proto.UnmarshalInvokeResponse(respB)
}

func TestWarmInvokeProxies(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	resp, err := invoke(tr, dp.Addr(), "f", []byte("x"))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if resp.ColdStart {
		t.Errorf("invocation with a ready endpoint should be warm")
	}
	if !bytes.Equal(resp.Body, []byte("done:x")) {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestColdInvokeWaitsForEndpoint(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")

	done := make(chan *proto.InvokeResponse, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := invoke(tr, dp.Addr(), "f", []byte("y"))
		if err != nil {
			errCh <- err
			return
		}
		done <- resp
	}()
	// Wait until the request queues.
	deadline := time.Now().Add(2 * time.Second)
	for dp.QueueDepth("f") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if dp.QueueDepth("f") != 1 {
		t.Fatalf("queue depth = %d, want 1", dp.QueueDepth("f"))
	}
	// Endpoint arrives (control plane broadcast): queue drains.
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{9}, "w1:9000")
	select {
	case resp := <-done:
		if !resp.ColdStart {
			t.Errorf("queued invocation should report cold start")
		}
		if resp.SchedulingLatencyUs <= 0 {
			t.Errorf("cold scheduling latency = %d", resp.SchedulingLatencyUs)
		}
	case err := <-errCh:
		t.Fatalf("invoke: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatalf("queued invocation never dispatched")
	}
}

func TestConcurrencyThrottling(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	host := startSandboxHost(t, tr, "w1:9000", 30*time.Millisecond)
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	// Two sandboxes with capacity 1 each: at most 2 concurrent requests
	// may reach the worker.
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1, 2}, "w1:9000")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := invoke(tr, dp.Addr(), "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	host.mu.Lock()
	maxSeen := host.maxSeen
	host.mu.Unlock()
	if maxSeen > 2 {
		t.Errorf("max concurrent requests at sandbox host = %d, want <= 2 (throttled)", maxSeen)
	}
}

func TestUnknownFunctionRejected(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	if _, err := invoke(tr, dp.Addr(), "ghost", nil); err == nil {
		t.Errorf("unknown function should be rejected")
	}
}

func TestQueueTimeout(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   50 * time.Millisecond,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	// No endpoints ever arrive: the invocation must time out and leave
	// the queue clean.
	if _, err := invoke(tr, dp.Addr(), "f", nil); err == nil {
		t.Fatalf("expected queue timeout")
	}
	if dp.QueueDepth("f") != 0 {
		t.Errorf("queue not cleaned after timeout: %d", dp.QueueDepth("f"))
	}
}

func TestEndpointRemovalStopsRouting(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	if _, err := invoke(tr, dp.Addr(), "f", nil); err != nil {
		t.Fatal(err)
	}
	// CP broadcasts an empty endpoint set (sandbox torn down).
	pushEndpoints(t, tr, dp.Addr(), "f", nil, "w1:9000")
	if dp.EndpointCount("f") != 0 {
		t.Errorf("endpoints not removed")
	}
}

func TestMetricReportsIncludeQueueDepth(t *testing.T) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	go invoke(tr, dp.Addr(), "f", nil) // queues: no endpoint exists
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		cp.mu.Lock()
		for _, rep := range cp.reports {
			for _, m := range rep.Metrics {
				if m.Function == "f" && m.QueueDepth >= 1 {
					cp.mu.Unlock()
					return
				}
			}
		}
		cp.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no metric report with queue depth arrived at the control plane")
}

func TestAsyncInvokeAcceptsAndExecutes(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte("bg")}
	ctx := context.Background()
	respB, err := tr.Call(ctx, dp.Addr(), proto.MethodInvoke, req.Marshal())
	if err != nil {
		t.Fatalf("async accept: %v", err)
	}
	resp, err := proto.UnmarshalInvokeResponse(respB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, []byte("accepted")) {
		t.Errorf("async accept body = %q", resp.Body)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter("async_completed").Value() >= 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("async invocation never completed")
}

func TestAsyncRetriesOnFailure(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   30 * time.Millisecond, // sync attempts fail fast
		AsyncRetries:   2,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	req := proto.InvokeRequest{Function: "f", Async: true}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter("async_failed").Value() >= 1 {
			if dp.metrics.Counter("async_retries").Value() < 2 {
				t.Errorf("retries = %d, want >= 2", dp.metrics.Counter("async_retries").Value())
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("async invocation never exhausted retries")
}

func TestFunctionRemovalFailsQueued(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	errCh := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", nil)
		errCh <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for dp.QueueDepth("f") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// CP removes the function (empty function list push).
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodAddFunction, (&proto.FunctionList{}).Marshal()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Errorf("queued invocation should fail when the function is removed")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("queued invocation hung after function removal")
	}
}

func TestStaleEndpointUpdateDiscarded(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")

	send := func(version uint64, ids ...core.SandboxID) {
		update := proto.EndpointUpdate{Function: "f", Version: version}
		for _, id := range ids {
			update.Endpoints = append(update.Endpoints, proto.SandboxInfo{
				ID: id, Function: "f", Node: 1, Addr: "w:9000", State: core.SandboxReady,
			})
		}
		if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodUpdateEndpointsBatch, endpointsOf(update)); err != nil {
			t.Fatal(err)
		}
	}
	// Newer update (3 endpoints) arrives before an older one (2): the
	// older broadcast must not regress the cache.
	send(1<<32|2, 1, 2, 3)
	send(1<<32|1, 1, 2)
	if got := dp.EndpointCount("f"); got != 3 {
		t.Fatalf("stale update regressed cache: %d endpoints, want 3", got)
	}
	if dp.metrics.Counter("endpoint_updates_stale").Value() != 1 {
		t.Errorf("stale update not counted")
	}
	// A higher leadership epoch always wins, even with a lower sequence.
	send(2<<32|1, 9)
	if got := dp.EndpointCount("f"); got != 1 {
		t.Fatalf("new-epoch update not applied: %d endpoints", got)
	}
}

// TestStaleEndpointRetried covers the availability-over-consistency path
// (paper §3.4.1): when the cached endpoint points at a dead worker, the
// data plane drops it and retries on a live one instead of failing the
// client.
func TestStaleEndpointRetried(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w-alive:9000", 0)
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	// Two endpoints: one on a worker that was never started (dead), one
	// alive. The LB may pick the dead one first; the invocation must
	// still succeed via the live endpoint.
	pushEndpoints(t, tr, dp.Addr(), "f", nil, "")
	update := proto.EndpointUpdate{Function: "f", Version: 1<<32 | 5, Endpoints: []proto.SandboxInfo{
		{ID: 1, Function: "f", Node: 1, Addr: "w-dead:9000", State: core.SandboxReady},
		{ID: 2, Function: "f", Node: 2, Addr: "w-alive:9000", State: core.SandboxReady},
	}}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodUpdateEndpointsBatch, endpointsOf(update)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := invoke(tr, dp.Addr(), "f", []byte("x")); err != nil {
			t.Fatalf("invoke %d should have failed over to the live endpoint: %v", i, err)
		}
	}
	if dp.EndpointCount("f") != 1 {
		t.Errorf("dead endpoint not dropped from cache: %d endpoints", dp.EndpointCount("f"))
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in   string
		ip   string
		port uint16
	}{
		{"10.0.0.1:9000", "10.0.0.1", 9000},
		{"dp0:8000", "dp0", 8000},
		{"noport", "noport", 0},
		{"bad:port:x", "bad:port:x", 0},
	}
	for _, tc := range cases {
		ip, port := splitAddr(tc.in)
		if ip != tc.ip || port != tc.port {
			t.Errorf("splitAddr(%q) = %q,%d want %q,%d", tc.in, ip, port, tc.ip, tc.port)
		}
	}
}

// TestFunctionUpdateRecomputesCapacity covers the stale-capacity fix: a
// function push with a raised TargetConcurrency must recompute the
// concurrency capacity of endpoints that already exist, not just of
// endpoints created afterwards.
func TestFunctionUpdateRecomputesCapacity(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	host := startSandboxHost(t, tr, "w1:9000", 30*time.Millisecond)
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f") // TargetConcurrency 1
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	// Raise the limit on the already-registered function.
	scaling := core.DefaultScalingConfig()
	scaling.TargetConcurrency = 4
	list := proto.FunctionList{Functions: []core.Function{{
		Name: "f", Image: "img", Port: 80, Scaling: scaling,
	}}}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodAddFunction, list.Marshal()); err != nil {
		t.Fatal(err)
	}

	fr := dp.lookup("f")
	if fr == nil {
		t.Fatal("function missing after update")
	}
	snap := fr.snap.Load()
	if len(snap.eps) != 1 || snap.eps[0].Capacity != 4 {
		t.Fatalf("existing endpoint capacity not recomputed: %+v", snap.eps)
	}

	// Behavioral check: the single sandbox now absorbs >1 concurrent
	// request instead of queueing at capacity 1.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := invoke(tr, dp.Addr(), "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	host.mu.Lock()
	maxSeen := host.maxSeen
	host.mu.Unlock()
	if maxSeen < 2 {
		t.Errorf("max concurrent requests = %d, want >= 2 after capacity raise", maxSeen)
	}
	if maxSeen > 4 {
		t.Errorf("max concurrent requests = %d, want <= 4 (throttled)", maxSeen)
	}
}

// TestQueueTimeoutVirtualClock locks in that the cold-start queue
// timeout is driven by the injected clock: with a virtual clock, a
// 30-second timeout fires from one Advance call instead of wall time.
func TestQueueTimeoutVirtualClock(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	vclk := clock.NewVirtual(time.Unix(1000, 0))
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		Clock:          vclk,
		MetricInterval: time.Hour,
		QueueTimeout:   30 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")

	errCh := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", nil)
		errCh <- err
	}()
	// Wait for the invocation to queue and register its timeout timer
	// (the metric loop holds the other pending timer).
	deadline := time.Now().Add(2 * time.Second)
	for (dp.QueueDepth("f") == 0 || vclk.PendingTimers() < 2) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if dp.QueueDepth("f") != 1 || vclk.PendingTimers() < 2 {
		t.Fatalf("queue depth = %d, pending timers = %d; invocation never armed its timeout",
			dp.QueueDepth("f"), vclk.PendingTimers())
	}
	vclk.Advance(31 * time.Second)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected queue timeout error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued invocation did not time out after clock advance")
	}
	if dp.QueueDepth("f") != 0 {
		t.Errorf("queue not cleaned after timeout: %d", dp.QueueDepth("f"))
	}
}

// TestAsyncRetryBackoffNotStranded covers the async-overflow fix: a
// retry that finds the async channel full must be re-enqueued with
// backoff and eventually settle, instead of being dropped until restart.
func TestAsyncRetryBackoffNotStranded(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   20 * time.Millisecond, // sync attempts fail fast
		AsyncRetries:   2,
	})
	// Shrink the function's queue shard so a retry colliding with one
	// accepted task overflows deterministically.
	dp.asyncShardFor("f").capa = 1
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f") // no endpoints: every attempt times out

	accept := func() {
		req := proto.InvokeRequest{Function: "f", Async: true}
		if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	accept()
	// Wait until the async loop picked task A up, then fill the queue
	// with task B so A's failed attempt overflows on re-enqueue.
	deadline := time.Now().Add(2 * time.Second)
	for dp.PendingAsync() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	accept()

	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter("async_failed").Value() >= 2 {
			if dp.metrics.Counter("async_backoff").Value() < 1 {
				t.Errorf("overflowed retry never took the backoff path")
			}
			if dp.metrics.Counter("async_requeued").Value() < 1 {
				t.Errorf("overflowed retry never re-enqueued")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("async tasks stranded: failed=%d backoff=%d requeued=%d",
		dp.metrics.Counter("async_failed").Value(),
		dp.metrics.Counter("async_backoff").Value(),
		dp.metrics.Counter("async_requeued").Value())
}
