package controlplane

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// sendReady reports one sandbox of function ready on node 1.
func sendReady(t *testing.T, tr transport.Transport, id core.SandboxID, function string) {
	t.Helper()
	ev := proto.SandboxEvent{SandboxID: id, Function: function, Node: 1, Addr: "10.0.0.1:9000"}
	if _, err := tr.Call(context.Background(), "cp0", proto.MethodSandboxReadyBatch, readyOf(ev)); err != nil {
		t.Fatal(err)
	}
}

// awaitEndpoints waits until the fake holds, for every function in want,
// exactly the listed sandboxes.
func (dp *fakeDP) awaitEndpoints(t *testing.T, want map[string][]core.SandboxID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		dp.mu.Lock()
		missing := ""
		for fn, ids := range want {
			got := map[core.SandboxID]bool{}
			for _, ep := range dp.endpoints[fn] {
				got[ep.ID] = true
			}
			ok := len(got) == len(ids)
			for _, id := range ids {
				ok = ok && got[id]
			}
			if !ok {
				missing = fmt.Sprintf("%s holds %v, want %v", fn, dp.endpoints[fn], ids)
				break
			}
		}
		dp.mu.Unlock()
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("data plane endpoints never converged: %s", missing)
		}
		time.Sleep(time.Millisecond)
	}
}

func (dp *fakeDP) updateCalls() int {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.calls[proto.MethodUpdateEndpointsBatch]
}

// TestEndpointSenderCoalescesBehindABlockedCall: while a replica's first
// endpoint call is held open, a burst of readiness reports accumulates in
// the set the replica is owed. Once the call returns, the replica holds
// every function's final endpoint set, delivered in fewer calls than
// there were reports.
func TestEndpointSenderCoalescesBehindABlockedCall(t *testing.T) {
	const burst = 16
	tr := transport.NewInProc()
	cp := newDPLifecycleCP(t, tr, clock.NewVirtual(time.Unix(5000, 0)))
	dp := startFakeDP(t, tr, "dp0:8000")
	registerDP(t, tr, 1, "dp0", 8000)
	h := &cpHarness{tr: tr, cp: cp}
	names := registerFunctions(t, h, burst)

	hold := make(chan struct{})
	dp.mu.Lock()
	dp.hold = hold
	dp.mu.Unlock()
	want := map[string][]core.SandboxID{}
	for i, name := range names {
		sendReady(t, tr, core.SandboxID(i+1), name)
		want[name] = []core.SandboxID{core.SandboxID(i + 1)}
	}
	// A second sandbox for the first function, after its first one has
	// already been written into the held call.
	for dp.updateCalls() == 0 {
		time.Sleep(time.Millisecond)
	}
	sendReady(t, tr, burst+1, names[0])
	want[names[0]] = append(want[names[0]], burst+1)
	close(hold)

	dp.awaitEndpoints(t, want)
	if n := dp.updateCalls(); n >= burst+1 {
		t.Errorf("%d readiness reports took %d endpoint calls, want fewer", burst+1, n)
	}
}

// TestPrunedDataPlaneIsSentNothingUntilRevived: a replica the sweep has
// pruned is owed nothing, so no endpoint call goes to it; the heartbeat
// that revives it brings every function's current endpoint set, including
// the sandboxes that became ready while it was out.
func TestPrunedDataPlaneIsSentNothingUntilRevived(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(5000, 0))
	cp := newDPLifecycleCP(t, tr, vclk)
	dp := startFakeDP(t, tr, "dp0:8000")
	registerDP(t, tr, 1, "dp0", 8000)
	names := registerFunctions(t, &cpHarness{tr: tr, cp: cp}, 2)
	sendReady(t, tr, 1, names[0])
	dp.awaitEndpoints(t, map[string][]core.SandboxID{names[0]: {1}})

	vclk.Advance(3*time.Second + time.Millisecond)
	cp.HealthSweep()
	if got := cp.DataPlaneCount(); got != 0 {
		t.Fatalf("DataPlaneCount = %d after the heartbeats stopped, want 0", got)
	}
	// The pass that pruned the replica cleared its sender's busy mark; a
	// second, quiet pass retires the sender, whose one call has landed.
	cp.HealthSweep()
	st := cp.getDataPlane(1)
	calls := dp.updateCalls()
	sendReady(t, tr, 2, names[0])
	sendReady(t, tr, 3, names[1])
	st.mu.Lock()
	owed, running := len(st.owed), st.out.wake != nil
	st.mu.Unlock()
	if owed != 0 || running {
		t.Fatalf("the pruned replica is owed %d functions (sender running: %v), want none", owed, running)
	}
	if n := dp.updateCalls(); n != calls {
		t.Fatalf("the pruned replica received %d endpoint calls", n-calls)
	}

	dpHeartbeat(t, tr, 1, "dp0", 8000)
	dp.awaitEndpoints(t, map[string][]core.SandboxID{names[0]: {1, 2}, names[1]: {3}})
}

// gateTransport holds calls of one method open until released.
type gateTransport struct {
	transport.Transport
	mu      sync.Mutex
	method  string
	reached chan struct{}
	release chan struct{}
}

// gate makes the next call of method wait: reached is closed when it
// arrives, and the call proceeds once release is closed.
func (g *gateTransport) gate(method string) (reached, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.method, g.reached, g.release = method, make(chan struct{}), make(chan struct{})
	return g.reached, g.release
}

func (g *gateTransport) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	g.mu.Lock()
	reached, release := g.reached, g.release
	held := method == g.method && reached != nil
	if held {
		g.method, g.reached, g.release = "", nil, nil
	}
	g.mu.Unlock()
	if held {
		close(reached)
		<-release
	}
	return g.Transport.Call(ctx, addr, method, payload)
}

// TestEndpointsRepairedAfterTheFunctionArrives: a data plane drops an
// endpoint update for a function it does not know yet. When the update
// outruns the function's registration delta, the delta's delivery owes
// the replica the function's endpoints again; when the delta is lost, the
// heartbeat that repairs it does.
func TestEndpointsRepairedAfterTheFunctionArrives(t *testing.T) {
	tr := transport.NewInProc()
	gated := &gateTransport{Transport: &dropTransport{Transport: tr}}
	cp := New(Config{
		Addr:              "cp0",
		Transport:         gated,
		DB:                store.NewMemory(),
		Clock:             clock.NewVirtual(time.Unix(5000, 0)),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Second,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	dp := startFakeDP(t, tr, "dp0:8000")
	registerDP(t, tr, 1, "dp0", 8000)
	register := func(name string) {
		t.Helper()
		fn := fnSpec(name)
		if _, err := tr.Call(context.Background(), "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			t.Error(err)
		}
	}

	// The update outruns the delta: the sandbox is ready while the
	// registration's dp.AddFunction is still on its way.
	reached, release := gated.gate(proto.MethodAddFunction)
	done := make(chan struct{})
	go func() {
		defer close(done)
		register("raced")
	}()
	<-reached
	calls := dp.updateCalls()
	sendReady(t, tr, 1, "raced")
	for dp.updateCalls() == calls {
		time.Sleep(time.Millisecond)
	}
	if held, _ := dp.has("raced"); held {
		t.Fatal("the function reached the data plane before its gated delta")
	}
	close(release)
	<-done
	dp.awaitEndpoints(t, map[string][]core.SandboxID{"raced": {1}})

	// The delta is lost: the replica learns the function, and then its
	// endpoints, from the heartbeat that answers with a sync.
	gated.Transport.(*dropTransport).drop(proto.MethodAddFunction)
	register("lost")
	gated.Transport.(*dropTransport).drop("")
	sendReady(t, tr, 2, "lost")
	dpHeartbeat(t, tr, 1, "dp0", 8000)
	dp.awaitEndpoints(t, map[string][]core.SandboxID{"raced": {1}, "lost": {2}})
}

// createSink is a worker listener that reports every create it receives
// and holds each create call until hold, when set, is closed.
type createSink struct {
	got  chan core.SandboxID
	hold chan struct{}
}

func listenCreateSink(t *testing.T, tr *transport.InProc, addr string, hold chan struct{}) *createSink {
	t.Helper()
	s := &createSink{got: make(chan core.SandboxID, 1024), hold: hold}
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		if method != proto.MethodCreateSandboxBatch {
			return nil, nil
		}
		batch, err := proto.UnmarshalCreateSandboxBatch(payload)
		if err != nil {
			return nil, err
		}
		for _, c := range batch.Creates {
			s.got <- c.SandboxID
		}
		if s.hold != nil {
			<-s.hold
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return s
}

// next waits for the sink's next create.
func (s *createSink) next(t *testing.T) core.SandboxID {
	t.Helper()
	select {
	case id := <-s.got:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("no create arrived")
		return 0
	}
}

func queued(id core.SandboxID) queuedCreate {
	return queuedCreate{req: proto.CreateSandboxRequest{SandboxID: id, Function: fnSpec("f")}}
}

// TestBlockedWorkerDoesNotDelayAnother: each worker has its own sender, so
// a create call held open on one worker leaves another worker's creates
// on their way at once; the held worker's later creates wait for its call
// and then share one. Health sweeps that pass during the held call do not
// retire its sender, so no second sender starts for that worker.
func TestBlockedWorkerDoesNotDelayAnother(t *testing.T) {
	h, _ := newParkedHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	registerWorker(t, h, 2, "w2", "10.0.0.2")
	hold := make(chan struct{})
	slow := listenCreateSink(t, h.tr, "10.0.0.1:9000", hold)
	fast := listenCreateSink(t, h.tr, "10.0.0.2:9000", nil)
	defer close(hold)
	w1, w2 := h.cp.getWorker(1), h.cp.getWorker(2)
	wakeOf := func(w *workerState) chan struct{} {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.out.wake
	}

	h.cp.enqueueCreate(w1, queued(1))
	if id := slow.next(t); id != 1 {
		t.Fatalf("worker 1 got create %d, want 1", id)
	}
	sender := wakeOf(w1)
	h.cp.HealthSweep() // clears the busy mark
	h.cp.HealthSweep() // would find the sender idle, were it not in a call
	if wakeOf(w1) != sender {
		t.Fatal("a health sweep retired worker 1's sender in the middle of its call")
	}
	h.cp.enqueueCreate(w1, queued(2))
	h.cp.enqueueCreate(w1, queued(3))
	for id := core.SandboxID(4); id <= 6; id++ {
		h.cp.enqueueCreate(w2, queued(id))
		if got := fast.next(t); got != id {
			t.Fatalf("worker 2 got create %d, want %d", got, id)
		}
	}
	select {
	case id := <-slow.got:
		t.Fatalf("worker 1 got create %d while its first call was held", id)
	default:
	}
	hold <- struct{}{} // release the first call; the next one carries 2 and 3
	if a, b := slow.next(t), slow.next(t); a != 2 || b != 3 {
		t.Fatalf("worker 1 then got creates %d, %d, want 2, 3", a, b)
	}
	if wakeOf(w1) != sender {
		t.Fatal("worker 1's creates were sent by a second sender")
	}
}

// TestStopDropsOwedEndpoints: a stopping control plane waits for the
// endpoint call each data plane's sender has in flight, and sends none of
// the updates owed behind it.
func TestStopDropsOwedEndpoints(t *testing.T) {
	tr := transport.NewInProc()
	cp := newDPLifecycleCP(t, tr, clock.NewVirtual(time.Unix(5000, 0)))
	dp := startFakeDP(t, tr, "dp0:8000")
	registerDP(t, tr, 1, "dp0", 8000)
	names := registerFunctions(t, &cpHarness{tr: tr, cp: cp}, 2)
	hold := make(chan struct{})
	dp.mu.Lock()
	dp.hold = hold
	dp.mu.Unlock()
	sendReady(t, tr, 1, names[0])
	for dp.updateCalls() == 0 {
		time.Sleep(time.Millisecond)
	}
	sendReady(t, tr, 2, names[1]) // owed behind the held call
	stopped := make(chan struct{})
	go func() {
		cp.Stop()
		close(stopped)
	}()
	<-cp.stopCh // Stop has begun, and waits for the held call
	close(hold)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop still waiting 5 s after the call in flight returned")
	}
	if n := dp.updateCalls(); n != 1 {
		t.Fatalf("%d endpoint calls, want the 1 in flight when the control plane stopped", n)
	}
}

// TestIdleSendersRetire: a quiet health sweep retires every sender that
// had nothing to do since the one before, so the control plane's
// goroutine count goes back to where it was before any peer was sent
// anything; the next enqueue starts a sender again.
func TestIdleSendersRetire(t *testing.T) {
	const workers = 8
	h, _ := newParkedHarness(t)
	var sinks []*createSink
	for i := 1; i <= workers; i++ {
		ip := fmt.Sprintf("10.0.0.%d", i)
		registerWorker(t, h, core.NodeID(i), "w"+ip, ip)
		sinks = append(sinks, listenCreateSink(t, h.tr, ip+":9000", nil))
	}
	baseline := runtime.NumGoroutine()

	for i := 1; i <= workers; i++ {
		h.cp.enqueueCreate(h.cp.getWorker(core.NodeID(i)), queued(core.SandboxID(i)))
	}
	for _, s := range sinks {
		s.next(t)
	}
	running := func() int {
		n := 0
		for i := 1; i <= workers; i++ {
			w := h.cp.getWorker(core.NodeID(i))
			w.mu.Lock()
			if w.out.wake != nil {
				n++
			}
			w.mu.Unlock()
		}
		return n
	}
	if n := running(); n != workers {
		t.Fatalf("%d senders running after every worker was sent a create, want %d", n, workers)
	}
	h.cp.HealthSweep() // clears the busy marks
	h.cp.HealthSweep() // finds them idle a whole pass
	if n := running(); n != 0 {
		t.Fatalf("%d senders still running after a quiet sweep", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a quiet sweep, want the %d from before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}

	h.cp.enqueueCreate(h.cp.getWorker(1), queued(workers+1))
	if id := sinks[0].next(t); id != workers+1 {
		t.Fatalf("after retirement worker 1 got create %d, want %d", id, workers+1)
	}
}

// TestEnqueueRacingRetirementLosesNothing: every create enqueued while
// sweeps retire the worker's sender arrives, once: either the retiring
// sender is still the running one and takes it, or the enqueue finds none
// running and starts another.
func TestEnqueueRacingRetirementLosesNothing(t *testing.T) {
	const rounds = 300
	h, _ := newParkedHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	sink := listenCreateSink(t, h.tr, "10.0.0.1:9000", nil)
	w := h.cp.getWorker(1)
	for i := core.SandboxID(1); i <= rounds; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.cp.HealthSweep()
			h.cp.HealthSweep()
		}()
		h.cp.enqueueCreate(w, queued(i))
		wg.Wait()
		if id := sink.next(t); id != i {
			t.Fatalf("round %d: worker got create %d", i, id)
		}
	}
	select {
	case id := <-sink.got:
		t.Fatalf("create %d arrived twice", id)
	case <-time.After(10 * time.Millisecond):
	}
}
