package dataplane

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/loadbalancer"
	"dirigent/internal/proto"
	"dirigent/internal/race"
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
	// refuse, when set, fails metric report calls without recording them;
	// refused counts the calls it failed.
	refuse  bool
	refused int
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
			if cp.refuse {
				cp.refused++
				cp.mu.Unlock()
				return nil, errors.New("fake control plane: report refused")
			}
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

// pushFunctions adds names to the data plane's function cache, as a
// registration delta does.
func pushFunctions(t *testing.T, tr *transport.InProc, dpAddr string, names ...string) {
	t.Helper()
	sendFunctions(t, tr, dpAddr, proto.MethodAddFunction, names...)
}

// sendFunctions sends names as a FunctionList through method.
func sendFunctions(t *testing.T, tr *transport.InProc, dpAddr, method string, names ...string) {
	t.Helper()
	var list proto.FunctionList
	for _, name := range names {
		list.Functions = append(list.Functions, core.Function{
			Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig(),
		})
	}
	if _, err := tr.Call(context.Background(), dpAddr, method, list.Marshal()); err != nil {
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

// firstEndpoint is a Config.Balancer that always picks the first
// endpoint, loaded or not. While that endpoint's slot is full, every
// pick loses its CAS, as if a concurrent invocation took the slot
// between each pick and its acquire.
type firstEndpoint struct{}

func (firstEndpoint) PickIndex(_ string, _ uint64, eps []loadbalancer.SnapshotEndpoint) int {
	if len(eps) == 0 {
		return -1
	}
	return 0
}

// TestPickRaceNeverOverAdmits drives the pick-race path through a
// balancer that keeps returning a full endpoint: the slot is never
// over-admitted, each acquire attempt counts exactly maxPickRetries lost
// races, and the invocation queues until the slot frees.
func TestPickRaceNeverOverAdmits(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	gate := make(chan struct{})
	var mu sync.Mutex
	inflight, maxSeen := 0, 0
	ln, err := tr.Listen("w1:9000", func(method string, payload []byte) ([]byte, error) {
		mu.Lock()
		inflight++
		maxSeen = max(maxSeen, inflight)
		mu.Unlock()
		<-gate
		mu.Lock()
		inflight--
		mu.Unlock()
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		Balancer:       firstEndpoint{},
		MetricInterval: time.Hour,
		QueueTimeout:   10 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before Stop, so a failed test cannot hang
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	fr := dp.lookup("f")
	ep := &fr.snap.Load().eps[0]
	races := dp.metrics.Counter("warm_pick_races")

	// The first invocation takes the endpoint's only slot and holds it.
	first := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", nil)
		first <- err
	}()
	poll(t, "the first invocation to hold the slot", func() bool { return ep.InFlight.Load() == 1 })

	// One acquire attempt: maxPickRetries picks, each a lost race.
	if _, _, ok := dp.acquireWarm(fr); ok {
		t.Fatal("acquired a slot on a full endpoint")
	}
	if got := races.Value(); got != maxPickRetries {
		t.Fatalf("warm_pick_races = %d after one attempt, want %d", got, maxPickRetries)
	}
	if n := ep.InFlight.Load(); n > int64(ep.Capacity) {
		t.Fatalf("in flight %d exceeds capacity %d", n, ep.Capacity)
	}

	// The second invocation loses its warm attempt and the pump at its
	// enqueue, then waits in the queue.
	second := make(chan error, 1)
	go func() {
		resp, err := invoke(tr, dp.Addr(), "f", nil)
		if err == nil && !resp.ColdStart {
			err = errors.New("queued invocation reported a warm start")
		}
		second <- err
	}()
	poll(t, "the second invocation to queue", func() bool {
		return dp.QueueDepth("f") == 1 && races.Value() >= 3*maxPickRetries
	})
	if got := races.Value(); got != 3*maxPickRetries {
		t.Fatalf("warm_pick_races = %d after three attempts, want %d", got, 3*maxPickRetries)
	}
	if n := ep.InFlight.Load(); n != 1 {
		t.Fatalf("in flight %d with one invocation admitted, want 1", n)
	}

	// The slot frees: the release pumps the queue, the fake's pick now
	// wins, and the queued invocation is granted.
	release()
	for _, ch := range []chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("invocation never completed")
		}
	}
	if got := races.Value(); got != 3*maxPickRetries {
		t.Errorf("warm_pick_races = %d after the grant, want %d", got, 3*maxPickRetries)
	}
	mu.Lock()
	defer mu.Unlock()
	if maxSeen != 1 {
		t.Errorf("sandbox saw %d concurrent invocations, want 1", maxSeen)
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

// TestAbandonedColdInvocationNeverRuns: a cold invocation whose wait ends
// while its dispatch is in flight, because QueueTimeout passed or because
// the data plane is stopping, fails while the sandbox still holds the call,
// and is not run again when that sandbox answers as a stale one. Before,
// abandon found nothing in the queue (the dispatch held the pending), the
// stale endpoint requeued it, and it ran on the next sandbox with nobody
// waiting for it, reading a payload its handler no longer owned; after a
// shutdown the front end fails over, so it ran twice.
func TestAbandonedColdInvocationNeverRuns(t *testing.T) {
	t.Run("timeout", func(t *testing.T) {
		testAbandonedColdInvocation(t, 50*time.Millisecond, func(*DataPlane) {})
	})
	t.Run("stop", func(t *testing.T) {
		testAbandonedColdInvocation(t, time.Minute, func(dp *DataPlane) { go dp.Stop() })
	})
}

// oneAddrOverTCP carries the calls to addr over loopback TCP and every
// other call in process.
type oneAddrOverTCP struct {
	*transport.InProc
	tcp  *transport.TCP
	addr string
}

func (o oneAddrOverTCP) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	if addr == o.addr {
		return o.tcp.Call(ctx, addr, method, payload)
	}
	return o.InProc.Call(ctx, addr, method, payload)
}

// testAbandonedColdInvocation queues one invocation, dispatches it to a
// sandbox that hangs, calls giveUp, waits for the invocation to fail, and
// then lets the hung sandbox answer as a stale one while a live sandbox
// is ready. The hung sandbox is reached over loopback TCP, where the proxy
// call's deadline and Stop end a call in flight: an in-process call checks
// its context only before the handler runs.
func testAbandonedColdInvocation(t *testing.T, queueTimeout time.Duration, giveUp func(*DataPlane)) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	tcp := transport.NewTCP()
	defer tcp.Close()
	entered, release, answered := make(chan struct{}), make(chan struct{}), make(chan struct{})
	stale, err := tcp.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) {
		close(entered)
		<-release
		close(answered)
		return nil, errors.New("worker: invoke: no such sandbox 1")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	var mu sync.Mutex
	ran := 0
	live, err := tr.Listen("w-live:9000", func(string, []byte) ([]byte, error) {
		mu.Lock()
		ran++
		mu.Unlock()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      oneAddrOverTCP{InProc: tr, tcp: tcp, addr: stale.Addr()},
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   queueTimeout,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	update := func(version uint64, eps ...proto.SandboxInfo) {
		t.Helper()
		u := proto.EndpointUpdate{Function: "f", Version: version, Endpoints: eps}
		if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodUpdateEndpointsBatch, endpointsOf(u)); err != nil {
			t.Fatal(err)
		}
	}
	staleEP := proto.SandboxInfo{ID: 1, Function: "f", Node: 1, Addr: stale.Addr(), State: core.SandboxReady}
	liveEP := proto.SandboxInfo{ID: 2, Function: "f", Node: 2, Addr: "w-live:9000", State: core.SandboxReady}

	errCh := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", []byte("x"))
		errCh <- err
	}()
	for dp.QueueDepth("f") == 0 {
		time.Sleep(time.Millisecond)
	}
	update(1, staleEP)
	<-entered // the queued invocation is dispatched to the stale sandbox
	update(2, staleEP, liveEP)
	giveUp(dp)
	select {
	case err := <-errCh:
		if err == nil {
			close(release)
			t.Fatal("the invocation should have failed while its dispatch hung")
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the invocation was still waiting 5 s after its wait ended, held by its hung dispatch")
	}
	close(release)
	<-answered
	time.Sleep(20 * time.Millisecond) // room for a wrongly requeued dispatch
	mu.Lock()
	defer mu.Unlock()
	if ran != 0 {
		t.Errorf("the abandoned invocation ran %d times on the live sandbox", ran)
	}
	if n := dp.QueueDepth("f"); n != 0 {
		t.Errorf("queue depth = %d after the caller gave up, want 0", n)
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
	// CP deregisters the function.
	fn := core.Function{Name: "f"}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodRemoveFunction, core.MarshalFunction(&fn)); err != nil {
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

// TestAddFunctionUpsertsAndKeepsUnlisted: a registration delta installs or
// updates what it lists and leaves every other function, with its
// endpoints, as it was.
func TestAddFunctionUpsertsAndKeepsUnlisted(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := testDP(t, tr)
	pushFunctions(t, tr, dp.Addr(), "a", "b")
	pushEndpoints(t, tr, dp.Addr(), "a", []core.SandboxID{1}, "w1:9000")
	before := dp.lookup("a")

	pushFunctions(t, tr, dp.Addr(), "c")
	pushFunctions(t, tr, dp.Addr(), "b")
	for _, name := range []string{"a", "b", "c"} {
		if dp.lookup(name) == nil {
			t.Errorf("function %s missing after deltas", name)
		}
	}
	if dp.lookup("a") != before || dp.EndpointCount("a") != 1 {
		t.Errorf("a delta for other functions replaced a's runtime or endpoints")
	}
	if _, err := invoke(tr, dp.Addr(), "a", []byte("x")); err != nil {
		t.Errorf("warm invoke of an unlisted function after deltas: %v", err)
	}
}

// TestSyncFunctionsDropsUnlisted: a sync replaces the function set —
// unlisted functions go and their queued invocations fail — while listed
// ones keep their runtimes and endpoints.
func TestSyncFunctionsDropsUnlisted(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	pushFunctions(t, tr, dp.Addr(), "keep", "drop")
	pushEndpoints(t, tr, dp.Addr(), "keep", []core.SandboxID{1}, "w1:9000")
	kept := dp.lookup("keep")
	errCh := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "drop", nil)
		errCh <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for dp.QueueDepth("drop") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	sendFunctions(t, tr, dp.Addr(), proto.MethodSyncFunctions, "keep", "new")
	if dp.lookup("drop") != nil {
		t.Errorf("an unlisted function survived the sync")
	}
	if dp.lookup("new") == nil {
		t.Errorf("a listed function is missing after the sync")
	}
	if dp.lookup("keep") != kept || dp.EndpointCount("keep") != 1 {
		t.Errorf("the sync replaced a listed function's runtime or endpoints")
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Errorf("an invocation queued for a dropped function succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("an invocation queued for a dropped function hung after the sync")
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

// TestEndpointUpdateCannotReviveRemovedFunction: an endpoint update built
// before a deregistration can arrive after the data plane dropped the
// function; it must leave the function unknown instead of re-creating it.
func TestEndpointUpdateCannotReviveRemovedFunction(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")
	fn := core.Function{Name: "f", Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodRemoveFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	if dp.lookup("f") != nil || dp.EndpointCount("f") != 0 {
		t.Errorf("an endpoint update re-created the removed function with %d endpoints", dp.EndpointCount("f"))
	}
	if _, err := invoke(tr, dp.Addr(), "f", []byte("x")); err == nil {
		t.Errorf("an invocation of the removed function succeeded")
	}
}

// TestEndpointUpdateAllocations pins what applying an update costs the
// heap: removing a function's last sandbox allocates nothing, and adding
// one to an empty set allocates its endpoint state and the snapshot.
func TestEndpointUpdateAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 100
	dp := New(Config{ID: 1, Addr: "dp0:8000", Transport: transport.NewInProc()})
	var list proto.FunctionList
	adds := make([][]byte, runs+1)
	removes := make([][]byte, runs+1)
	for i := range adds {
		name := fmt.Sprintf("fn-%04d", i)
		list.Functions = append(list.Functions, core.Function{Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()})
		adds[i] = endpointsOf(proto.EndpointUpdate{Function: name, Version: 1, Endpoints: []proto.SandboxInfo{
			{ID: core.SandboxID(i + 1), Function: name, Node: 1, Addr: "10.0.0.1:9000", State: core.SandboxReady},
		}})
		removes[i] = endpointsOf(proto.EndpointUpdate{Function: name, Version: 2})
	}
	if _, err := dp.handleAddFunctions(list.Marshal()); err != nil {
		t.Fatal(err)
	}
	apply := func(payloads [][]byte) func() {
		next := 0
		return func() {
			if _, err := dp.handleUpdateEndpointsBatch(payloads[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	add := testing.AllocsPerRun(runs, apply(adds))
	for i := range adds {
		if got := dp.EndpointCount(list.Functions[i].Name); got != 1 {
			t.Fatalf("%s holds %d endpoints after its add, want 1", list.Functions[i].Name, got)
		}
	}
	remove := testing.AllocsPerRun(runs, apply(removes))
	for i := range removes {
		if got := dp.EndpointCount(list.Functions[i].Name); got != 0 {
			t.Fatalf("%s holds %d endpoints after its removal, want 0", list.Functions[i].Name, got)
		}
	}
	t.Logf("%.1f allocations per one-sandbox add, %.1f per removal", add, remove)
	if add > 2 || remove != 0 {
		t.Errorf("a one-sandbox add allocates %.1f times and a removal %.1f, want at most 2 and 0", add, remove)
	}
}

// TestFunctionDeltaCostIsFlatInRegistrySize pins what learning a function
// costs a data plane, counted in allocations so that no host timing
// enters: a registration delta costs the same on a registry of 64
// functions as on one of 16 384, nothing for a function already held and
// at most its name and runtime for a new one, and a sync of N functions
// into an empty data plane allocates at most syncAllocsPerFunction·N.
func TestFunctionDeltaCostIsFlatInRegistrySize(t *testing.T) {
	const (
		runs = 100
		// syncAllocsPerFunction is a new function's name and runtime, plus
		// one for the registry maps' growth, which is amortized.
		syncAllocsPerFunction = 3
	)
	spec := func(name string) core.Function {
		return core.Function{Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
	}
	type cost struct{ known, fresh float64 }
	measure := func(size int) cost {
		dp := New(Config{ID: 1, Addr: "dp0:8000", Transport: transport.NewInProc()})
		var all proto.FunctionList
		for i := range size {
			all.Functions = append(all.Functions, spec(fmt.Sprintf("fn-%05d", i)))
		}
		payload := all.Marshal()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := dp.handleSyncFunctions(payload); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		syncAllocs := after.Mallocs - before.Mallocs
		t.Logf("a sync of %d functions into an empty data plane: %d allocations, %v", size, syncAllocs, took)
		if syncAllocs > syncAllocsPerFunction*uint64(size) {
			t.Errorf("a sync of %d functions allocates %d times, want at most %d per function", size, syncAllocs, syncAllocsPerFunction)
		}
		if got := len(dp.runtimes(nil)); got != size {
			t.Fatalf("%d runtimes after a sync of %d functions", got, size)
		}

		known := all.Functions[0]
		delta := proto.FunctionDelta(core.MarshalFunction(&known))
		var c cost
		c.known = testing.AllocsPerRun(runs, func() {
			if _, err := dp.handleAddFunctions(delta); err != nil {
				t.Fatal(err)
			}
		})
		fresh := make([][]byte, runs+1)
		for i := range fresh {
			f := spec(fmt.Sprintf("new-%05d", i))
			fresh[i] = proto.FunctionDelta(core.MarshalFunction(&f))
		}
		next := 0
		c.fresh = testing.AllocsPerRun(runs, func() {
			if _, err := dp.handleAddFunctions(fresh[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if got := len(dp.runtimes(nil)); got != size+len(fresh) {
			t.Fatalf("%d runtimes after %d new deltas on %d functions", got, len(fresh), size)
		}
		t.Logf("%d functions: a delta allocates %.1f times for a known function, %.1f for a new one", size, c.known, c.fresh)
		return c
	}
	small, large := measure(64), measure(16384)
	if small != large {
		t.Errorf("a delta costs %+v allocations on 64 functions and %+v on 16 384, want the same", small, large)
	}
	if large.known != 0 || large.fresh > 2 {
		t.Errorf("a delta allocates %.1f times for a known function and %.1f for a new one, want 0 and at most 2", large.known, large.fresh)
	}
}

// TestRegistryShrinksAfterFunctionsAreRemoved: a data plane synced up to
// 16 000 functions and then down to none holds about what an empty one
// does, since each registry stripe is rebuilt once it falls to a quarter
// of its peak instead of keeping the table of its largest size.
func TestRegistryShrinksAfterFunctionsAreRemoved(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes heap sizes")
	}
	const (
		functions = 16000
		maxHeld   = 100 << 10
	)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	syncTo := func(dp *DataPlane, list proto.FunctionList) {
		if _, err := dp.handleSyncFunctions(list.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	dp := New(Config{ID: 1, Addr: "dp0:8000", Transport: transport.NewInProc()})
	var all proto.FunctionList
	for i := range functions {
		all.Functions = append(all.Functions, core.Function{
			Name: fmt.Sprintf("fn-%05d", i), Image: "img", Port: 80, Scaling: core.DefaultScalingConfig(),
		})
	}
	empty := heap()
	syncTo(dp, all)
	full := heap()
	syncTo(dp, proto.FunctionList{})
	after := heap()
	runtime.KeepAlive(all)
	runtime.KeepAlive(dp)
	if n := len(dp.runtimes(nil)); n != 0 {
		t.Fatalf("%d runtimes left after a sync to none", n)
	}
	held := int64(after) - int64(empty)
	t.Logf("heap over an empty data plane: %d KB holding %d functions, %d KB after a sync to none",
		(int64(full)-int64(empty))>>10, functions, held>>10)
	if held > maxHeld {
		t.Errorf("a data plane synced to %d functions and back to none holds %d KB more than an empty one, want at most %d KB", functions, held>>10, maxHeld>>10)
	}
}
