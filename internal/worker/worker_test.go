package worker

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// fakeCP records worker → control-plane calls.
type fakeCP struct {
	mu         sync.Mutex
	registered []core.WorkerNode
	heartbeats int
	ready      []proto.SandboxEvent
	crashed    []proto.SandboxEvent
}

func startFakeCP(t *testing.T, tr *transport.InProc, addr string) *fakeCP {
	t.Helper()
	cp := &fakeCP{}
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		cp.mu.Lock()
		defer cp.mu.Unlock()
		switch method {
		case proto.MethodRegisterWorker:
			req, err := proto.UnmarshalRegisterWorkerRequest(payload)
			if err != nil {
				return nil, err
			}
			cp.registered = append(cp.registered, req.Worker)
		case proto.MethodWorkerHeartbeat:
			cp.heartbeats++
		case proto.MethodSandboxReadyBatch:
			batch, err := proto.UnmarshalSandboxEventBatch(payload)
			if err != nil {
				return nil, err
			}
			cp.ready = append(cp.ready, batch.Events...)
		case proto.MethodSandboxCrashed:
			ev, err := proto.UnmarshalSandboxEvent(payload)
			if err != nil {
				return nil, err
			}
			cp.crashed = append(cp.crashed, *ev)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return cp
}

// eachRuntime runs a worker protocol test once per runtime: the emulated
// fleets' null runtime, and the simulated containerd with its latency
// model scaled to zero.
func eachRuntime(t *testing.T, test func(t *testing.T, rt sandbox.Runtime)) {
	for _, tc := range []struct {
		name string
		rt   sandbox.Runtime
	}{
		{"null", &sandbox.Null{}},
		{"containerd", sandbox.NewContainerd(sandbox.Config{LatencyScale: 0, NodeIP: [4]byte{10, 0, 0, 1}, Seed: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) { test(t, tc.rt) })
	}
}

func testWorker(t *testing.T, tr *transport.InProc, cpAddr string, rt sandbox.Runtime, mut func(*Config)) *Worker {
	t.Helper()
	images := NewImageRegistry()
	images.Register("img", func(p []byte) ([]byte, error) {
		return append([]byte("ran:"), p...), nil
	})
	cfg := Config{
		Node: core.WorkerNode{
			ID: 1, Name: "w1", IP: "10.0.0.1", Port: 9000,
			CPUMilli: 10000, MemoryMB: 65536,
		},
		Addr:              "10.0.0.1:9000",
		Runtime:           rt,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		HeartbeatInterval: 10 * time.Millisecond,
		Images:            images,
	}
	if mut != nil {
		mut(&cfg)
	}
	w := New(cfg)
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

// createOne and killOne speak the only shape the worker accepts for a
// single sandbox: a batch of one.
func createOne(tr *transport.InProc, addr string, req proto.CreateSandboxRequest) error {
	batch := proto.CreateSandboxBatch{Creates: []proto.CreateSandboxRequest{req}}
	_, err := tr.Call(context.Background(), addr, proto.MethodCreateSandboxBatch, batch.Marshal())
	return err
}

func killOne(tr *transport.InProc, addr string, id core.SandboxID) error {
	batch := proto.KillSandboxBatch{IDs: []core.SandboxID{id}}
	_, err := tr.Call(context.Background(), addr, proto.MethodKillSandboxBatch, batch.Marshal())
	return err
}

func testFn() core.Function {
	return core.Function{
		Name: "f", Image: "img", Port: 8080,
		Scaling: core.DefaultScalingConfig(),
	}
}

func awaitReady(t *testing.T, cp *fakeCP, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		cp.mu.Lock()
		got := len(cp.ready)
		cp.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("control plane never saw %d ready sandboxes", n)
}

func TestWorkerRegistersAndHeartbeats(t *testing.T) { eachRuntime(t, testWorkerRegistersAndHeartbeats) }

func testWorkerRegistersAndHeartbeats(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	testWorker(t, tr, "cp", rt, nil)
	cp.mu.Lock()
	if len(cp.registered) != 1 || cp.registered[0].Name != "w1" {
		t.Errorf("registered = %+v", cp.registered)
	}
	cp.mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	cp.mu.Lock()
	hb := cp.heartbeats
	cp.mu.Unlock()
	if hb < 2 {
		t.Errorf("heartbeats = %d, want several", hb)
	}
}

func TestWorkerCreateInvokeKill(t *testing.T) { eachRuntime(t, testWorkerCreateInvokeKill) }

func testWorkerCreateInvokeKill(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, nil)

	req := proto.CreateSandboxRequest{SandboxID: 42, Function: testFn()}
	ctx := context.Background()
	if err := createOne(tr, w.Addr(), req); err != nil {
		t.Fatalf("create: %v", err)
	}
	awaitReady(t, cp, 1)
	cp.mu.Lock()
	ev := cp.ready[0]
	cp.mu.Unlock()
	if ev.SandboxID != 42 || ev.Function != "f" || ev.Addr != w.Addr() {
		t.Errorf("ready event = %+v", ev)
	}
	if w.SandboxCount() != 1 {
		t.Errorf("SandboxCount = %d", w.SandboxCount())
	}

	// Invoke through the proxy hop.
	inv := proto.InvokeSandboxRequest{SandboxID: 42, Function: "f", Payload: []byte("x")}
	respB, err := tr.Call(ctx, w.Addr(), proto.MethodInvokeSandbox, inv.Marshal())
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if !bytes.Equal(respB, []byte("ran:x")) {
		t.Errorf("resp = %q", respB)
	}

	// List reflects the sandbox.
	listB, err := tr.Call(ctx, w.Addr(), proto.MethodListSandboxes, nil)
	if err != nil {
		t.Fatal(err)
	}
	list, err := proto.UnmarshalSandboxList(listB)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sandboxes) != 1 || list.Sandboxes[0].ID != 42 {
		t.Errorf("list = %+v", list.Sandboxes)
	}

	// Kill removes it.
	if err := killOne(tr, w.Addr(), 42); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if w.SandboxCount() != 0 {
		t.Errorf("SandboxCount after kill = %d", w.SandboxCount())
	}
	// Invoking a killed sandbox fails.
	if _, err := tr.Call(ctx, w.Addr(), proto.MethodInvokeSandbox, inv.Marshal()); err == nil {
		t.Errorf("invoke on killed sandbox should fail")
	}
}

func TestWorkerResourceAccounting(t *testing.T) { eachRuntime(t, testWorkerResourceAccounting) }

func testWorkerResourceAccounting(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, nil)
	fn := testFn()
	fn.Scaling.CPUMilli = 500
	fn.Scaling.MemoryMB = 1024
	for i := 1; i <= 3; i++ {
		req := proto.CreateSandboxRequest{SandboxID: core.SandboxID(i), Function: fn}
		if err := createOne(tr, w.Addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	awaitReady(t, cp, 3)
	util := w.utilization()
	if util.CPUMilliUsed != 1500 || util.MemoryMBUsed != 3072 {
		t.Errorf("util = %+v, want cpu=1500 mem=3072", util)
	}
	if err := killOne(tr, w.Addr(), 2); err != nil {
		t.Fatal(err)
	}
	util = w.utilization()
	if util.CPUMilliUsed != 1000 || util.MemoryMBUsed != 2048 {
		t.Errorf("util after kill = %+v", util)
	}
}

func TestWorkerCrashSandboxNotifiesCP(t *testing.T) { eachRuntime(t, testWorkerCrashSandboxNotifiesCP) }

func testWorkerCrashSandboxNotifiesCP(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, nil)
	req := proto.CreateSandboxRequest{SandboxID: 7, Function: testFn()}
	if err := createOne(tr, w.Addr(), req); err != nil {
		t.Fatal(err)
	}
	awaitReady(t, cp, 1)
	if err := w.CrashSandbox(7); err != nil {
		t.Fatalf("crash: %v", err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if len(cp.crashed) != 1 || cp.crashed[0].SandboxID != 7 {
		t.Errorf("crash events = %+v", cp.crashed)
	}
}

func TestWorkerStopRejectsWork(t *testing.T) { eachRuntime(t, testWorkerStopRejectsWork) }

func testWorkerStopRejectsWork(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, nil)
	w.Stop()
	req := proto.CreateSandboxRequest{SandboxID: 1, Function: testFn()}
	if err := createOne(tr, w.Addr(), req); err == nil {
		t.Errorf("create on stopped worker should fail (listener closed)")
	}
	// Double stop is a no-op.
	w.Stop()
}

func TestWorkerUnknownMethod(t *testing.T) { eachRuntime(t, testWorkerUnknownMethod) }

func testWorkerUnknownMethod(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, nil)
	if _, err := tr.Call(context.Background(), w.Addr(), "wn.Bogus", nil); err == nil {
		t.Errorf("unknown method should fail")
	}
}

func TestImageRegistryDefaultEcho(t *testing.T) {
	r := NewImageRegistry()
	h := r.Lookup("unregistered", "f")
	out, err := h([]byte("echo"))
	if err != nil || !bytes.Equal(out, []byte("echo")) {
		t.Errorf("default handler = %q, %v", out, err)
	}
	r.Register("img", func([]byte) ([]byte, error) { return []byte("custom"), nil })
	r.RegisterFallback(func(function string) Handler {
		return func([]byte) ([]byte, error) { return []byte("fallback:" + function), nil }
	})
	if out, _ = r.Lookup("img", "f")(nil); !bytes.Equal(out, []byte("custom")) {
		t.Errorf("registered handler not used")
	}
	if out, _ = r.Lookup("unregistered", "f")(nil); !bytes.Equal(out, []byte("fallback:f")) {
		t.Errorf("fallback not bound to the function name: %q", out)
	}
}

// TestWorkerConcurrentInvokeAndChurn hammers the lock-free dispatch
// path: parallel invocations race sandbox creation, kills, crashes,
// list/utilization reads, and heartbeats. Run with -race, it locks in
// the copy-on-write dispatch map and atomic in-flight counters.
func TestWorkerConcurrentInvokeAndChurn(t *testing.T) {
	eachRuntime(t, testWorkerConcurrentInvokeAndChurn)
}

func testWorkerConcurrentInvokeAndChurn(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, nil)
	ctx := context.Background()

	// A stable population of sandboxes that invocations always hit.
	for i := 1; i <= 8; i++ {
		req := proto.CreateSandboxRequest{SandboxID: core.SandboxID(i), Function: testFn()}
		if err := createOne(tr, w.Addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	awaitReady(t, cp, 8)

	const iters = 200
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}
	// Parallel invocations across the stable sandboxes.
	for g := 0; g < 4; g++ {
		g := g
		run(func(i int) {
			inv := proto.InvokeSandboxRequest{SandboxID: core.SandboxID(1 + (g*iters+i)%8), Function: "f", Payload: []byte("x")}
			if _, err := tr.Call(ctx, w.Addr(), proto.MethodInvokeSandbox, inv.Marshal()); err != nil {
				t.Errorf("invoke: %v", err)
			}
		})
	}
	// Churn on a separate ID range: create, then kill or crash.
	run(func(i int) {
		id := core.SandboxID(100 + i)
		req := proto.CreateSandboxRequest{SandboxID: id, Function: testFn()}
		_ = createOne(tr, w.Addr(), req)
		if i%2 == 0 {
			_ = killOne(tr, w.Addr(), id)
		} else {
			_ = w.CrashSandbox(id)
		}
	})
	// Reads concurrent with the churn.
	run(func(int) {
		w.SandboxCount()
		w.ReadySandboxIDs()
		w.utilization()
		_, _ = tr.Call(ctx, w.Addr(), proto.MethodListSandboxes, nil)
	})
	wg.Wait()

	// The stable sandboxes survived the churn and still serve, and
	// every in-flight slot was released.
	if w.SandboxCount() < 8 {
		t.Errorf("SandboxCount = %d, want >= 8", w.SandboxCount())
	}
	if n := w.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after churn, want 0", n)
	}
	inv := proto.InvokeSandboxRequest{SandboxID: 3, Function: "f", Payload: []byte("y")}
	respB, err := tr.Call(ctx, w.Addr(), proto.MethodInvokeSandbox, inv.Marshal())
	if err != nil || !bytes.Equal(respB, []byte("ran:y")) {
		t.Errorf("post-churn invoke = %q, %v", respB, err)
	}
}

func awaitPrewarmPool(t *testing.T, w *Worker, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if w.Metrics().Gauge("prewarm_pool_size").Value() >= int64(n) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("prewarm pool never reached %d (at %d)",
		n, w.Metrics().Gauge("prewarm_pool_size").Value())
}

// TestWorkerBatchCreate locks in the batched create path: one RPC
// carries many create instructions, all sandboxes come up, and readiness
// reports flow back (in however many batches).
func TestWorkerBatchCreate(t *testing.T) { eachRuntime(t, testWorkerBatchCreate) }

func testWorkerBatchCreate(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, nil)

	batch := proto.CreateSandboxBatch{}
	for i := 1; i <= 8; i++ {
		batch.Creates = append(batch.Creates, proto.CreateSandboxRequest{
			SandboxID: core.SandboxID(i), Function: testFn(),
		})
	}
	if _, err := tr.Call(context.Background(), w.Addr(), proto.MethodCreateSandboxBatch, batch.Marshal()); err != nil {
		t.Fatalf("batch create: %v", err)
	}
	awaitReady(t, cp, 8)
	if w.SandboxCount() != 8 {
		t.Errorf("SandboxCount = %d, want 8", w.SandboxCount())
	}
	cp.mu.Lock()
	seen := make(map[core.SandboxID]bool)
	for _, ev := range cp.ready {
		seen[ev.SandboxID] = true
	}
	cp.mu.Unlock()
	for i := 1; i <= 8; i++ {
		if !seen[core.SandboxID(i)] {
			t.Errorf("sandbox %d never reported ready", i)
		}
	}
	if w.Metrics().Histogram("ready_batch_size").Count() == 0 {
		t.Errorf("ready_batch_size histogram empty")
	}
	if w.Metrics().Counter("create_batches_received").Value() != 1 {
		t.Errorf("create_batches_received = %d, want 1",
			w.Metrics().Counter("create_batches_received").Value())
	}
}

// TestWorkerPrewarmClaim locks in the pre-warm pool: a cold start claims
// an initialized sandbox (skipping runtime creation), the claimed
// sandbox serves invocations under the control plane's ID, teardown goes
// through the runtime's own handle, and the pool refills after a claim.
func TestWorkerPrewarmClaim(t *testing.T) { eachRuntime(t, testWorkerPrewarmClaim) }

func testWorkerPrewarmClaim(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, func(c *Config) { c.Prewarm = 2 })
	awaitPrewarmPool(t, w, 2)

	ctx := context.Background()
	req := proto.CreateSandboxRequest{SandboxID: 42, Function: testFn()}
	if err := createOne(tr, w.Addr(), req); err != nil {
		t.Fatalf("create: %v", err)
	}
	awaitReady(t, cp, 1)
	if got := w.Metrics().Counter("prewarm_hits").Value(); got != 1 {
		t.Errorf("prewarm_hits = %d, want 1", got)
	}
	if got := w.Metrics().Counter("prewarm_misses").Value(); got != 0 {
		t.Errorf("prewarm_misses = %d, want 0", got)
	}

	// The claimed sandbox serves under the CP-assigned ID with the
	// claiming function's handler.
	inv := proto.InvokeSandboxRequest{SandboxID: 42, Function: "f", Payload: []byte("x")}
	respB, err := tr.Call(ctx, w.Addr(), proto.MethodInvokeSandbox, inv.Marshal())
	if err != nil || !bytes.Equal(respB, []byte("ran:x")) {
		t.Errorf("invoke on claimed sandbox = %q, %v", respB, err)
	}
	// List reports the rebound identity, not the prewarm placeholder.
	listB, err := tr.Call(ctx, w.Addr(), proto.MethodListSandboxes, nil)
	if err != nil {
		t.Fatal(err)
	}
	list, err := proto.UnmarshalSandboxList(listB)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sandboxes) != 1 || list.Sandboxes[0].ID != 42 || list.Sandboxes[0].Function != "f" {
		t.Errorf("list = %+v", list.Sandboxes)
	}

	// The pool refills back to its configured size.
	awaitPrewarmPool(t, w, 2)

	// Teardown via the runtime's own handle succeeds.
	if err := killOne(tr, w.Addr(), 42); err != nil {
		t.Fatalf("kill claimed sandbox: %v", err)
	}
	if w.SandboxCount() != 0 {
		t.Errorf("SandboxCount after kill = %d", w.SandboxCount())
	}
}

// TestWorkerPrewarmRuntimeMismatch: a function pinned to a different
// runtime must not claim from this node's pool.
func TestWorkerPrewarmRuntimeMismatch(t *testing.T) { eachRuntime(t, testWorkerPrewarmRuntimeMismatch) }

func testWorkerPrewarmRuntimeMismatch(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, func(c *Config) { c.Prewarm = 1 })
	awaitPrewarmPool(t, w, 1)

	fn := testFn()
	fn.Runtime = "firecracker" // the node runs neither test runtime under that name
	req := proto.CreateSandboxRequest{SandboxID: 7, Function: fn}
	if err := createOne(tr, w.Addr(), req); err != nil {
		t.Fatal(err)
	}
	awaitReady(t, cp, 1)
	if got := w.Metrics().Counter("prewarm_hits").Value(); got != 0 {
		t.Errorf("prewarm_hits = %d, want 0 (runtime mismatch)", got)
	}
	if got := w.Metrics().Counter("prewarm_misses").Value(); got != 1 {
		t.Errorf("prewarm_misses = %d, want 1", got)
	}
	if w.SandboxCount() != 1 {
		t.Errorf("mismatched function's sandbox never created")
	}
}

// awaitPoolSizes polls until the per-image pool partition matches want.
func awaitPoolSizes(t *testing.T, w *Worker, want map[string]int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var got map[string]int
	for time.Now().Before(deadline) {
		got = w.PrewarmPoolSizes()
		if reflect.DeepEqual(got, want) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool partition never reached %v (at %v)", want, got)
}

// TestApportionPrewarm pins how a node splits its budget across the
// cluster-wide per-image wants.
func TestApportionPrewarm(t *testing.T) {
	const base = "prewarm/base"
	pt := func(img string, want uint32) proto.PrewarmTarget {
		return proto.PrewarmTarget{Image: img, Want: want}
	}
	for _, tc := range []struct {
		name   string
		budget int
		wants  []proto.PrewarmTarget
		want   map[string]int
	}{
		{"no wants, all base", 4, nil, map[string]int{base: 4}},
		{"zero wants, all base", 4, []proto.PrewarmTarget{pt("a", 0)}, map[string]int{base: 4}},
		{"under budget, leftover on base", 4,
			[]proto.PrewarmTarget{pt("a", 2), pt("b", 1)},
			map[string]int{"a": 2, "b": 1, base: 1}},
		{"exact budget", 3,
			[]proto.PrewarmTarget{pt("a", 2), pt("b", 1)},
			map[string]int{"a": 2, "b": 1}},
		{"oversubscribed, largest remainder wins the leftover", 4,
			[]proto.PrewarmTarget{pt("a", 5), pt("b", 4), pt("c", 3)},
			map[string]int{"a": 2, "b": 1, "c": 1}},
		{"oversubscribed, zero-want images dropped", 2,
			[]proto.PrewarmTarget{pt("a", 0), pt("b", 4)},
			map[string]int{"b": 2}},
		{"oversubscribed, tiny share rounds away", 2,
			[]proto.PrewarmTarget{pt("a", 7), pt("b", 1)},
			map[string]int{"a": 2}},
	} {
		if got := apportionPrewarm(tc.budget, tc.wants, base); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: apportionPrewarm(%d) = %v, want %v", tc.name, tc.budget, got, tc.want)
		}
	}
}

// TestWorkerPrewarmTargetsApply drives the control-plane push protocol
// end to end: a worker in static mode (whole budget on the base image —
// seed parity) receives a generation-tagged target set, repartitions the
// pool (evicting surplus base entries), serves an image-hit claim, heals
// the drained pool, ignores a stale-generation push, and reverts to the
// static partition when an empty set arrives.
func TestWorkerPrewarmTargetsApply(t *testing.T) { eachRuntime(t, testWorkerPrewarmTargetsApply) }

func testWorkerPrewarmTargetsApply(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, func(c *Config) { c.Prewarm = 4 })
	ctx := context.Background()

	// Seed parity: no push yet, so the whole budget idles on the base image.
	awaitPoolSizes(t, w, map[string]int{"prewarm/base": 4})
	if g := w.PrewarmGen(); g != 0 {
		t.Fatalf("PrewarmGen before any push = %d, want 0", g)
	}

	push := func(gen uint64, targets ...proto.PrewarmTarget) {
		t.Helper()
		msg := proto.PrewarmTargets{Gen: gen, Targets: targets}
		if _, err := tr.Call(ctx, w.Addr(), proto.MethodPrewarmTargets, msg.Marshal()); err != nil {
			t.Fatalf("push gen %d: %v", gen, err)
		}
	}
	push(7, proto.PrewarmTarget{Image: "img-a", Want: 2}, proto.PrewarmTarget{Image: "img-b", Want: 1})
	awaitPoolSizes(t, w, map[string]int{"img-a": 2, "img-b": 1, "prewarm/base": 1})
	if g := w.PrewarmGen(); g != 7 {
		t.Errorf("PrewarmGen = %d, want 7", g)
	}
	if ev := w.Metrics().Counter("prewarm_evictions").Value(); ev != 3 {
		t.Errorf("evictions after repartition = %d, want 3 (surplus base entries)", ev)
	}

	// A cold start for img-a claims from its dedicated pool: an image hit,
	// and the drained slot heals back.
	fn := core.Function{Name: "fa", Image: "img-a", Port: 8080, Scaling: core.DefaultScalingConfig()}
	req := proto.CreateSandboxRequest{SandboxID: 42, Function: fn}
	if err := createOne(tr, w.Addr(), req); err != nil {
		t.Fatal(err)
	}
	awaitReady(t, cp, 1)
	if got := w.Metrics().Counter("prewarm_image_hits").Value(); got != 1 {
		t.Errorf("prewarm_image_hits = %d, want 1", got)
	}
	awaitPoolSizes(t, w, map[string]int{"img-a": 2, "img-b": 1, "prewarm/base": 1})

	// A stale generation must not regress the partition.
	push(6, proto.PrewarmTarget{Image: "img-z", Want: 4})
	awaitPoolSizes(t, w, map[string]int{"img-a": 2, "img-b": 1, "prewarm/base": 1})
	if g := w.PrewarmGen(); g != 7 {
		t.Errorf("PrewarmGen after stale push = %d, want 7", g)
	}

	// An empty target set reverts to the static partition (predictor went
	// quiet): per-image pools are evicted and the base pool refills.
	push(8)
	awaitPoolSizes(t, w, map[string]int{"prewarm/base": 4})
	if g := w.PrewarmGen(); g != 8 {
		t.Errorf("PrewarmGen = %d, want 8", g)
	}
}

// TestWorkerConcurrentPrewarmEvictionClaim races memory-pressure
// eviction (real sandboxes charging allocation) against pool claims,
// kills, and refills, then checks pool-entry conservation: every filled
// entry is claimed, evicted, or still pooled — never two of them. Run
// under -race by the CI stress step.
func TestWorkerConcurrentPrewarmEvictionClaim(t *testing.T) {
	eachRuntime(t, testWorkerConcurrentPrewarmEvictionClaim)
}

func testWorkerConcurrentPrewarmEvictionClaim(t *testing.T, rt sandbox.Runtime) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	w := testWorker(t, tr, "cp", rt, func(c *Config) {
		c.Prewarm = 8
		c.Node.MemoryMB = 1536 // pool (8×128) + 4 sandboxes fill the node
	})
	awaitPrewarmPool(t, w, 8)

	// Race: 8 cold starts charge 1024 MB against a full 1024 MB pool, so
	// claims drain the pool from the tail while eviction trims it from the
	// head, with misses spawning refills throughout.
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			req := proto.CreateSandboxRequest{SandboxID: core.SandboxID(id), Function: testFn()}
			if err := createOne(tr, w.Addr(), req); err != nil {
				t.Errorf("create %d: %v", id, err)
			}
		}(i)
	}
	wg.Wait()
	awaitReady(t, cp, 8)
	if hits := w.Metrics().Counter("prewarm_base_hits").Value(); hits == 0 {
		t.Errorf("no claims hit the pool during the race")
	}
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := killOne(tr, w.Addr(), core.SandboxID(id)); err != nil {
				t.Errorf("kill %d: %v", id, err)
			}
		}(i)
	}
	wg.Wait()

	// Deterministic pressure: ensure at least one pooled entry exists (a
	// miss heals the pool if the race left it empty), then fill the node
	// with runtime-mismatched sandboxes (never claim) so the pool must
	// yield to real allocations.
	req := proto.CreateSandboxRequest{SandboxID: 1000, Function: testFn()}
	if err := createOne(tr, w.Addr(), req); err != nil {
		t.Fatal(err)
	}
	awaitPrewarmPool(t, w, 1)
	mismatched := testFn()
	mismatched.Runtime = "firecracker"
	for i := 1001; i <= 1011; i++ {
		req := proto.CreateSandboxRequest{SandboxID: core.SandboxID(i), Function: mismatched}
		if err := createOne(tr, w.Addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Metrics().Counter("prewarm_evictions").Value() == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("memory pressure never evicted a pooled entry")
		}
		time.Sleep(time.Millisecond)
	}

	// Conservation: once fills settle, filled == claimed + evicted + pooled.
	deadline = time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		pending := len(w.prewarmPending)
		pooled := 0
		for _, pool := range w.prewarmPools {
			pooled += len(pool)
		}
		w.mu.Unlock()
		filled := w.Metrics().Counter("prewarm_filled").Value()
		claimed := w.Metrics().Counter("prewarm_image_hits").Value() +
			w.Metrics().Counter("prewarm_base_hits").Value()
		evicted := w.Metrics().Counter("prewarm_evictions").Value()
		if pending == 0 && filled == claimed+evicted+int64(pooled) {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("pool conservation violated: filled=%d claimed=%d evicted=%d pooled=%d pending=%d",
				filled, claimed, evicted, pooled, pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeregisterDuringCreationFreesSandbox: a function is deregistered
// while one of its sandboxes is still booting, so the control plane's kill
// finds nothing on the worker yet. When the sandbox then reports ready for
// a function that no longer exists, the control plane must have it torn
// down, or it and its resources stay on the worker forever.
func TestDeregisterDuringCreationFreesSandbox(t *testing.T) {
	tr := transport.NewInProc()
	cp := controlplane.New(controlplane.Config{
		Addr:              "cp",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: time.Hour, // the sweep is driven explicitly
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	vclk := clock.NewVirtual(time.Unix(0, 0))
	w := testWorker(t, tr, "cp", &sandbox.Null{ReadyDelay: time.Second}, func(c *Config) {
		c.Clock = vclk
		c.HeartbeatInterval = time.Hour
	})
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	fn := testFn()
	fn.Scaling.MinScale = 1
	ctx := context.Background()
	if _, err := tr.Call(ctx, "cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	cp.Reconcile()
	// Two timers pending: the parked heartbeat and the sandbox's boot wait.
	await("the sandbox to start booting", func() bool { return vclk.PendingTimers() == 2 })
	if _, err := tr.Call(ctx, "cp", proto.MethodDeregisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	await("the deregistration's kill to miss", func() bool {
		return w.Metrics().Counter("kill_batches_received").Value() == 1
	})
	if got := w.Metrics().Counter("sandboxes_killed").Value(); got != 0 {
		t.Fatalf("sandboxes_killed = %d before the sandbox exists", got)
	}

	vclk.Advance(time.Second)
	await("the orphan to be torn down", func() bool {
		return w.Metrics().Counter("sandboxes_killed").Value() == 1
	})
	if util := w.utilization(); w.SandboxCount() != 0 || util.CPUMilliUsed != 0 || util.MemoryMBUsed != 0 {
		t.Errorf("after deregistration the worker still holds %d sandboxes, cpu=%d mem=%d",
			w.SandboxCount(), util.CPUMilliUsed, util.MemoryMBUsed)
	}
}
