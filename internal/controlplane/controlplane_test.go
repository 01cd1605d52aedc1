package controlplane

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// fakeWorker acks creations, tracks kills, and reports a sandbox list.
type fakeWorker struct {
	mu      sync.Mutex
	created []proto.CreateSandboxRequest
	killed  []core.SandboxID
	list    []proto.SandboxInfo
	// batchRPCs / batchKillRPCs count the create and kill RPCs received.
	batchRPCs, batchKillRPCs int
	// autoReady makes the worker report SandboxReady for each creation.
	autoReady bool
	node      core.NodeID
	addr      string
	tr        *transport.InProc
	cpAddr    string
}

func startFakeWorker(t *testing.T, tr *transport.InProc, cpAddr string, node core.NodeID, addr string, autoReady bool) *fakeWorker {
	t.Helper()
	w := &fakeWorker{node: node, addr: addr, tr: tr, cpAddr: cpAddr, autoReady: autoReady}
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		switch method {
		case proto.MethodCreateSandboxBatch:
			batch, err := proto.UnmarshalCreateSandboxBatch(payload)
			if err != nil {
				return nil, err
			}
			w.mu.Lock()
			w.batchRPCs++
			w.mu.Unlock()
			for _, req := range batch.Creates {
				w.accept(req)
			}
			return nil, nil
		case proto.MethodKillSandboxBatch:
			batch, err := proto.UnmarshalKillSandboxBatch(payload)
			if err != nil {
				return nil, err
			}
			w.mu.Lock()
			w.killed = append(w.killed, batch.IDs...)
			w.batchKillRPCs++
			w.mu.Unlock()
			return nil, nil
		case proto.MethodListSandboxes:
			w.mu.Lock()
			list := proto.SandboxList{Sandboxes: append([]proto.SandboxInfo(nil), w.list...)}
			w.mu.Unlock()
			return list.Marshal(), nil
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return w
}

// accept records one create instruction and reports readiness when the fake is in auto-ready mode.
func (w *fakeWorker) accept(req proto.CreateSandboxRequest) {
	w.mu.Lock()
	w.created = append(w.created, req)
	auto := w.autoReady
	w.mu.Unlock()
	if auto {
		go w.reportReady(req.SandboxID, req.Function.Name)
	}
}

// heartbeat starts a background heartbeat loop so the CP health monitor
// keeps the fake worker alive; tests exercising heartbeat-timeout
// detection simply don't call it.
func (w *fakeWorker) heartbeat(t *testing.T, every time.Duration) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		hb := proto.WorkerHeartbeat{Node: w.node}
		for {
			select {
			case <-stop:
				return
			case <-time.After(every):
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				w.tr.Call(ctx, w.cpAddr, proto.MethodWorkerHeartbeat, hb.Marshal())
				cancel()
			}
		}
	}()
}

func (w *fakeWorker) reportReady(id core.SandboxID, fn string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.tr.Call(ctx, w.cpAddr, proto.MethodSandboxReadyBatch, readyOf(proto.SandboxEvent{SandboxID: id, Function: fn, Node: w.node, Addr: w.addr}))
	w.mu.Lock()
	w.list = append(w.list, proto.SandboxInfo{ID: id, Function: fn, Node: w.node, Addr: w.addr, State: core.SandboxReady})
	w.mu.Unlock()
}

// readyOf wraps one readiness event as the batch of one the control plane
// accepts.
func readyOf(ev proto.SandboxEvent) []byte {
	batch := proto.SandboxEventBatch{Events: []proto.SandboxEvent{ev}}
	return batch.Marshal()
}

// fakeDP records endpoint updates and function metadata with the real
// data plane's semantics: AddFunction upserts, RemoveFunction drops one
// function, SyncFunctions replaces the set, and endpoint updates for
// unknown functions or stale (reordered) ones are discarded.
type fakeDP struct {
	mu        sync.Mutex
	functions map[string]bool
	endpoints map[string][]proto.SandboxInfo
	versions  map[string]uint64
	// calls counts the requests received per method.
	calls map[string]int
	// hold, when set, keeps the next endpoint update's call open, before
	// it is applied, until the channel is closed.
	hold chan struct{}
}

func startFakeDP(t *testing.T, tr *transport.InProc, addr string) *fakeDP {
	t.Helper()
	dp := &fakeDP{
		functions: map[string]bool{},
		endpoints: map[string][]proto.SandboxInfo{},
		versions:  map[string]uint64{},
		calls:     map[string]int{},
	}
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		dp.calls[method]++
		if hold := dp.hold; hold != nil && method == proto.MethodUpdateEndpointsBatch {
			dp.hold = nil
			dp.mu.Unlock()
			<-hold
			dp.mu.Lock()
		}
		switch method {
		case proto.MethodAddFunction, proto.MethodSyncFunctions:
			list, err := proto.UnmarshalFunctionList(payload)
			if err != nil {
				return nil, err
			}
			if method == proto.MethodSyncFunctions {
				dp.functions = map[string]bool{}
			}
			for _, f := range list.Functions {
				dp.functions[f.Name] = true
			}
		case proto.MethodRemoveFunction:
			f, err := core.UnmarshalFunction(payload)
			if err != nil {
				return nil, err
			}
			delete(dp.functions, f.Name)
		case proto.MethodUpdateEndpointsBatch:
			batch, err := proto.UnmarshalEndpointUpdateBatch(payload)
			if err != nil {
				return nil, err
			}
			for i := range batch.Updates {
				dp.applyLocked(&batch.Updates[i])
			}
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return dp
}

// has reports whether the fake holds the function, and how many syncs it
// has received.
func (dp *fakeDP) has(name string) (held bool, syncs int) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.functions[name], dp.calls[proto.MethodSyncFunctions]
}

// applyLocked applies one endpoint update, discarding stale reordered
// broadcasts by version like the real data plane. Callers hold dp.mu.
func (dp *fakeDP) applyLocked(up *proto.EndpointUpdate) {
	if !dp.functions[up.Function] || up.Version != 0 && up.Version <= dp.versions[up.Function] {
		return
	}
	dp.versions[up.Function] = up.Version
	dp.endpoints[up.Function] = up.Endpoints
}

type cpHarness struct {
	tr *transport.InProc
	cp *ControlPlane
	db *store.Store
}

func newCPHarness(t *testing.T) *cpHarness {
	t.Helper()
	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:              "cp0",
		Transport:         tr,
		DB:                db,
		AutoscaleInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		// The harness's fake data planes don't heartbeat; DP lifecycle
		// tests (dataplanes_test.go) drive the sweep explicitly instead.
		DataPlaneTimeout:  time.Hour,
		NoDownscaleWindow: 50 * time.Millisecond,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	return &cpHarness{tr: tr, cp: cp, db: db}
}

func (h *cpHarness) call(t *testing.T, method string, payload []byte) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := h.tr.Call(ctx, h.cp.Addr(), method, payload)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return resp
}

func registerWorker(t *testing.T, h *cpHarness, id core.NodeID, name, ip string) {
	t.Helper()
	req := proto.RegisterWorkerRequest{Worker: core.WorkerNode{
		ID: id, Name: name, IP: ip, Port: 9000, CPUMilli: 10000, MemoryMB: 65536,
	}}
	h.call(t, proto.MethodRegisterWorker, req.Marshal())
}

func fnSpec(name string) core.Function {
	fn := core.Function{Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.StableWindow = 500 * time.Millisecond
	fn.Scaling.PanicWindow = 50 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = 100 * time.Millisecond
	return fn
}

func TestSingleNodeIsLeaderImmediately(t *testing.T) {
	h := newCPHarness(t)
	if !h.cp.IsLeader() {
		t.Fatalf("single-node control plane should lead immediately")
	}
}

func TestRegisterFunctionPersists(t *testing.T) {
	h := newCPHarness(t)
	fn := fnSpec("f")
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	if h.db.HLen("functions") != 1 {
		t.Errorf("function not persisted")
	}
	// Registration is idempotent.
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	if h.db.HLen("functions") != 1 {
		t.Errorf("re-registration duplicated state")
	}
	// Invalid function rejected.
	bad := core.Function{Name: "", Image: "i", Port: 1}
	ctx := context.Background()
	if _, err := h.tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&bad)); err == nil {
		t.Errorf("invalid registration accepted")
	}
}

func TestScalingMetricsDriveCreation(t *testing.T) {
	h := newCPHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, "cp0", 1, "10.0.0.1:9000", true).heartbeat(t, 30*time.Millisecond)
	dp := startFakeDP(t, h.tr, "dp0:8000")
	reg := proto.RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: 1, IP: "dp0", Port: 8000}}
	h.call(t, proto.MethodRegisterDataPlane, reg.Marshal())

	fn := fnSpec("f")
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))

	// DP reports queue depth 3: the autoscaler should create sandboxes.
	report := proto.ScalingMetricReport{DataPlane: 1, Metrics: []core.ScalingMetric{
		{Function: "f", InFlight: 0, QueueDepth: 3, At: time.Now()},
	}}
	h.call(t, proto.MethodScalingMetric, report.Marshal())

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ready, _ := h.cp.FunctionScale("f"); ready >= 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ready, _ := h.cp.FunctionScale("f")
	if ready < 3 {
		t.Fatalf("ready = %d, want >= 3", ready)
	}
	// The DP must have received endpoint updates for the new sandboxes.
	// Generous deadline: the race detector slows broadcasts considerably.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		dp.mu.Lock()
		n := len(dp.endpoints["f"])
		dp.mu.Unlock()
		if n >= 3 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("data plane endpoint cache not updated")
}

func TestScaleDownKillsSurplus(t *testing.T) {
	h, clk := newParkedHarness(t)
	clk.Advance(time.Minute) // past the default no-downscale window after taking the lead
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	w := startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 1)
	h.call(t, proto.MethodScalingMetric, demandReport(names, 2, clk.Now()))
	if n := readyStaged(t, h, names[0]); n != 2 {
		t.Fatalf("two queued invocations staged %d sandboxes, want 2", n)
	}
	// Traffic stops: the data plane reports the zero once and then leaves
	// the function out. After the grace period the sandboxes are torn down.
	h.call(t, proto.MethodScalingMetric, demandReport(names, 0, clk.Now()))
	if !tickUntilScale(h, clk, names[0], 0, 2*time.Second) {
		ready, creating := h.cp.FunctionScale(names[0])
		t.Fatalf("surplus sandboxes never torn down: ready=%d creating=%d", ready, creating)
	}
	h.cp.Stop() // waits for the kill RPCs it started
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.killed) != 2 {
		t.Fatalf("worker saw %d kills, want 2", len(w.killed))
	}
}

func TestWorkerHeartbeatTimeoutDrainsEndpoints(t *testing.T) {
	h := newCPHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, "cp0", 1, "10.0.0.1:9000", true)
	fn := fnSpec("f")
	fn.Scaling.MinScale = 1
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ready, _ := h.cp.FunctionScale("f"); ready >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// No heartbeats ever arrive: the health monitor must fail the worker
	// and drop its sandboxes.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.cp.WorkerCount() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if h.cp.WorkerCount() != 0 {
		t.Fatalf("worker never failed despite missing heartbeats")
	}
}

func TestHeartbeatKeepsWorkerAlive(t *testing.T) {
	h := newCPHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, "cp0", 1, "10.0.0.1:9000", true)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		hb := proto.WorkerHeartbeat{Node: 1}
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				h.tr.Call(ctx, "cp0", proto.MethodWorkerHeartbeat, hb.Marshal())
				cancel()
			}
		}
	}()
	time.Sleep(500 * time.Millisecond)
	if h.cp.WorkerCount() != 1 {
		t.Fatalf("heartbeating worker marked failed")
	}
}

func TestRecoveryMergesWorkerSandboxes(t *testing.T) {
	tr := transport.NewInProc()
	db := store.NewMemory()

	// Pre-populate persistent state as a previous leader would have.
	fn := fnSpec("f")
	db.HSet("functions", "f", core.MarshalFunction(&fn))
	wn := core.WorkerNode{ID: 1, Name: "w1", IP: "10.0.0.1", Port: 9000, CPUMilli: 10000, MemoryMB: 65536}
	db.HSet("workers", "w1", core.MarshalWorkerNode(&wn))

	// The worker still runs a sandbox from before the failure.
	w := startFakeWorker(t, tr, "cp0", 1, "10.0.0.1:9000", false)
	w.list = []proto.SandboxInfo{{ID: 77, Function: "f", Node: 1, Addr: "10.0.0.1:9000", State: core.SandboxReady}}

	cp := New(Config{
		Addr:              "cp0",
		Transport:         tr,
		DB:                db,
		AutoscaleInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		NoDownscaleWindow: time.Minute,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ready, _ := cp.FunctionScale("f"); ready == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("recovered leader never merged the worker's sandbox list")
}

func TestFollowerRejectsAPICalls(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(1_000_000, 0))
	// Two-replica group whose peer is unreachable: this replica can never
	// win an election, so it must reject API calls as non-leader.
	cp := New(Config{
		Addr:              "cp0",
		Peers:             []string{"cp0", "cp-unreachable"},
		Transport:         tr,
		DB:                store.NewMemory(),
		Clock:             vclk,
		AutoscaleInterval: time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	if !cp.replLog() {
		t.Fatalf("a two-replica group does not run the replicated log")
	}
	// Let it time out and campaign, and lose, twice.
	deadline := time.Now().Add(5 * time.Second)
	for cp.raftNode.Term() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no second election after %v of virtual time; term %d", vclk.Since(time.Unix(1_000_000, 0)), cp.raftNode.Term())
		}
		vclk.Advance(4 * cp.cfg.RaftElectionMax)
		runtime.Gosched()
	}
	if cp.IsLeader() {
		t.Fatalf("won an election without a quorum")
	}
	fn := fnSpec("f")
	ctx := context.Background()
	_, err := tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	if err == nil {
		t.Fatalf("non-leader accepted a registration")
	}
	var re *transport.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, cpclient.ErrNotLeaderText) {
		t.Errorf("rejection should carry the not-leader marker: %v", err)
	}
}

// wrappedDB hides a store behind the DB interface, as the benchmark's
// call-counting DB does.
type wrappedDB struct{ DB }

// TestStartNeedsAStoreForAGroup: a replica of a group applies the Raft log
// to its own store, so Start refuses a DB that is not a *store.Store; a
// singleton writes to whatever DB it is given.
func TestStartNeedsAStoreForAGroup(t *testing.T) {
	group := []string{"cp0", "cp1"}
	for _, tc := range []struct {
		name  string
		peers []string
		db    DB
		ok    bool
	}{
		{"group with a wrapped store", group, wrappedDB{store.NewMemory()}, false},
		{"group with no store", group, nil, false},
		{"singleton with a wrapped store", []string{"cp0"}, wrappedDB{store.NewMemory()}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := New(Config{
				Addr:              "cp0",
				Peers:             tc.peers,
				Transport:         transport.NewInProc(),
				DB:                tc.db,
				AutoscaleInterval: time.Hour,
			})
			err := cp.Start()
			if err == nil {
				defer cp.Stop()
			}
			if (err == nil) != tc.ok {
				t.Fatalf("Start() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestProposeOnStoppingNodeIsRetryable: a durable write that reaches the
// replicated log while its node shuts down (a registration in flight on a
// leader being killed) comes back as the not-leader rejection, which
// cpclient retries on the next replica, not as an application error.
func TestProposeOnStoppingNodeIsRetryable(t *testing.T) {
	cp := New(Config{
		Addr:      "cp0",
		Peers:     []string{"cp0", "cp-unreachable"},
		Transport: transport.NewInProc(),
		DB:        store.NewMemory(),
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	cp.raftNode.Stop()
	err := cp.cfg.DB.HSet(hashFunctions, "f", []byte("spec"))
	if err == nil {
		t.Fatalf("a stopped node acknowledged a write")
	}
	// What the caller sees once the transport has carried it.
	if remote := (&transport.RemoteError{Msg: err.Error()}); !cpclient.IsUnavailable(remote) {
		t.Fatalf("cpclient would not retry %q", err)
	}
}

func TestClusterStatus(t *testing.T) {
	h := newCPHarness(t)
	fn := fnSpec("statusfn")
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	out := string(h.call(t, proto.MethodClusterStatus, nil))
	if !strings.Contains(out, "statusfn") || !strings.Contains(out, "functions=1") {
		t.Errorf("status output missing fields:\n%s", out)
	}
}

func TestDeregisterFunctionTearsDown(t *testing.T) {
	h := newCPHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	w := startFakeWorker(t, h.tr, "cp0", 1, "10.0.0.1:9000", true)
	w.heartbeat(t, 30*time.Millisecond)
	fn := fnSpec("f")
	fn.Scaling.MinScale = 1
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ready, _ := h.cp.FunctionScale("f"); ready >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.call(t, proto.MethodDeregisterFunction, core.MarshalFunction(&fn))
	if h.db.HLen("functions") != 0 {
		t.Errorf("function still persisted after deregistration")
	}
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		kills := len(w.killed)
		w.mu.Unlock()
		if kills >= 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sandboxes not torn down on deregistration")
}

// TestEpochMonotonicAcrossLeaders is the regression test for endpoint
// version ordering: every leadership change must mint a strictly larger
// epoch (persisted in the store), so a new leader's endpoint
// broadcasts outrank the old leader's even though its per-function
// sequence numbers restart at zero.
func TestEpochMonotonicAcrossLeaders(t *testing.T) {
	tr := transport.NewInProc()
	db := store.NewMemory()
	dp := startFakeDP(t, tr, "dp0:8000")
	_ = dp

	var lastVersion uint64
	for generation := 0; generation < 3; generation++ {
		cp := New(Config{
			Addr:              "cp0",
			Transport:         tr,
			DB:                db,
			AutoscaleInterval: time.Hour,
			HeartbeatTimeout:  time.Hour,
		})
		if err := cp.Start(); err != nil {
			t.Fatal(err)
		}
		reg := proto.RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: 1, IP: "dp0", Port: 8000}}
		ctx := context.Background()
		if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterDataPlane, reg.Marshal()); err != nil {
			t.Fatal(err)
		}
		fn := fnSpec("f")
		if _, err := tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			t.Fatal(err)
		}
		var w proto.EndpointBatchWriter
		w.Reset(nil)
		cp.writeEndpointUpdate(&w, "f")
		batch, err := proto.UnmarshalEndpointUpdateBatch(w.Bytes())
		if err != nil || len(batch.Updates) != 1 {
			t.Fatalf("generation %d: wrote %+v, %v; want one update", generation, batch, err)
		}
		update := batch.Updates[0]
		if update.Version <= lastVersion {
			t.Fatalf("generation %d: version %x not greater than previous leader's %x",
				generation, update.Version, lastVersion)
		}
		lastVersion = update.Version
		cp.Stop()
	}
}

// TestRaftTimingDefaults pins where a replicated control plane's Raft
// timers come from when its caller sets none: the in-process timings, not
// the raft package's own unit-test ones (2 ms heartbeat, 8–16 ms
// election timeout), under which a leader off-CPU for 8 ms loses its
// term. The read lease is left to raft's rule (the election minimum), and
// explicit timers pass through untouched.
func TestRaftTimingDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.RaftHeartbeat != 10*time.Millisecond || c.RaftElectionMin != 60*time.Millisecond || c.RaftElectionMax != 120*time.Millisecond {
		t.Errorf("zero timers resolved to heartbeat %v, election %v–%v; want 10ms, 60ms–120ms",
			c.RaftHeartbeat, c.RaftElectionMin, c.RaftElectionMax)
	}
	if c.ReadLease != 0 {
		t.Errorf("ReadLease defaulted to %v, want 0 (raft applies the election minimum)", c.ReadLease)
	}
	tcp := Config{RaftHeartbeat: 50 * time.Millisecond, RaftElectionMin: 150 * time.Millisecond, RaftElectionMax: 300 * time.Millisecond}.withDefaults()
	if tcp.RaftHeartbeat != 50*time.Millisecond || tcp.RaftElectionMin != 150*time.Millisecond || tcp.RaftElectionMax != 300*time.Millisecond {
		t.Errorf("explicit timers overridden: heartbeat %v, election %v–%v", tcp.RaftHeartbeat, tcp.RaftElectionMin, tcp.RaftElectionMax)
	}
}

// holdFunctionsDB stalls recovery's first read of the function registry
// until released, holding a new leader between winning its term and
// reloading the state the term starts from.
type holdFunctionsDB struct {
	*store.Store
	once             sync.Once
	reading, release chan struct{}
}

func (d *holdFunctionsDB) HGetAll(hash string) map[string][]byte {
	if hash == hashFunctions {
		d.once.Do(func() {
			close(d.reading)
			<-d.release
		})
	}
	return d.Store.HGetAll(hash)
}

// TestLeaderServesNothingBeforeRecovery: a leader whose recovery has not
// reloaded the function registry yet refuses RPCs. Served, a data plane
// heartbeat in that window re-admits the replica and warms it with the
// partial (here empty) function list, and the data plane drops every
// function missing from it, failing the invocations queued for them.
func TestLeaderServesNothingBeforeRecovery(t *testing.T) {
	tr := transport.NewInProc()
	mem := store.NewMemory()
	fn := fnSpec("f")
	if err := mem.HSet(hashFunctions, fn.Name, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	db := &holdFunctionsDB{Store: mem, reading: make(chan struct{}), release: make(chan struct{})}
	cp := New(Config{Addr: "cp0", Transport: tr, DB: db, AutoscaleInterval: time.Hour, HeartbeatTimeout: time.Hour})
	dp := startFakeDP(t, tr, "dp0:8000")
	started := make(chan error, 1)
	go func() { started <- cp.Start() }()
	<-db.reading

	hb := proto.DataPlaneHeartbeat{DataPlane: core.DataPlane{ID: 1, IP: "dp0", Port: 8000}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_, err := tr.Call(ctx, "cp0", proto.MethodDataPlaneHeartbeat, hb.Marshal())
	cancel()
	if err == nil {
		dp.mu.Lock()
		t.Errorf("heartbeat served mid-recovery; the data plane was warmed with %v", dp.functions)
		dp.mu.Unlock()
	}
	if cp.IsLeader() {
		t.Errorf("IsLeader before recovery reloaded the registry")
	}
	close(db.release)
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)

	dpHeartbeat(t, tr, 1, "dp0", 8000)
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if !dp.functions["f"] {
		t.Errorf("after recovery the data plane was warmed with %v, want f", dp.functions)
	}
}

func TestPersistSandboxAblationWrites(t *testing.T) {
	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:                "cp0",
		Transport:           tr,
		DB:                  db,
		AutoscaleInterval:   10 * time.Millisecond,
		HeartbeatTimeout:    time.Second,
		PersistSandboxState: true,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	req := proto.RegisterWorkerRequest{Worker: core.WorkerNode{ID: 1, Name: "w1", IP: "10.0.0.1", Port: 9000, CPUMilli: 10000, MemoryMB: 65536}}
	ctx := context.Background()
	tr.Call(ctx, "cp0", proto.MethodRegisterWorker, req.Marshal())
	startFakeWorker(t, tr, "cp0", 1, "10.0.0.1:9000", true)
	fn := fnSpec("f")
	fn.Scaling.MinScale = 1
	tr.Call(ctx, "cp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if db.HLen("sandboxes") >= 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("ablation mode never persisted sandbox state")
}
