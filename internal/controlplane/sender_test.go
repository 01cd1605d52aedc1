package controlplane

import (
	"context"
	"fmt"
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
	st := cp.getDataPlane(1)
	for {
		st.mu.Lock()
		flushing := st.flushing
		st.mu.Unlock()
		if !flushing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	calls := dp.updateCalls()
	sendReady(t, tr, 2, names[0])
	sendReady(t, tr, 3, names[1])
	st.mu.Lock()
	owed, flushing := len(st.owed), st.flushing
	st.mu.Unlock()
	if owed != 0 || flushing {
		t.Fatalf("the pruned replica is owed %d functions (sender running: %v), want none", owed, flushing)
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
