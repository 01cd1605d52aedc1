package controlplane

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// newParkedHarness is newVClockHarness behind the cpHarness helpers: the
// autoscale tick and the failure detectors never fire during a test, so
// only Reconcile calls and scaling-metric reports decide anything.
func newParkedHarness(t *testing.T) (*cpHarness, *clock.Virtual) {
	t.Helper()
	cp, tr, vclk := newVClockHarness(t, time.Hour)
	return &cpHarness{tr: tr, cp: cp}, vclk
}

func registerFunctions(t *testing.T, h *cpHarness, n int) []string {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("fn-%03d", i)
		fn := fnSpec(names[i])
		h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	}
	return names
}

// demandReport is data plane 1's report showing queueDepth waiting
// invocations for each named function.
func demandReport(names []string, queueDepth int, at time.Time) []byte {
	return demandReportFrom(1, names, queueDepth, at)
}

func demandReportFrom(dp core.DataPlaneID, names []string, queueDepth int, at time.Time) []byte {
	report := proto.ScalingMetricReport{DataPlane: dp}
	for _, name := range names {
		report.Metrics = append(report.Metrics, core.ScalingMetric{Function: name, QueueDepth: queueDepth, At: at})
	}
	return report.Marshal()
}

// TestScaleFromZeroPlacedInReportHandler: with the tick an hour away, a
// report showing demand for a function at zero scale has staged its
// sandbox and handed the create RPC to the worker's sender by the time
// the call returns; a second report for the same function adds nothing.
func TestScaleFromZeroPlacedInReportHandler(t *testing.T) {
	h, _ := newParkedHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	w := startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 2)

	h.call(t, proto.MethodScalingMetric, demandReport(names[:1], 1, time.Now()))
	if ready, creating := h.cp.FunctionScale(names[0]); ready != 0 || creating != 1 {
		t.Fatalf("after the report: ready=%d creating=%d, want 0/1", ready, creating)
	}
	if _, creating := h.cp.FunctionScale(names[1]); creating != 0 {
		t.Fatalf("a function nobody reported got %d sandboxes", creating)
	}
	if got := h.cp.Metrics().Counter("sandbox_creations_requested").Value(); got != 1 {
		t.Fatalf("sandbox_creations_requested = %d, want 1", got)
	}
	if got := h.cp.Metrics().Histogram("cold_start_sched_ms").Count(); got != 1 {
		t.Fatalf("cold_start_sched_ms samples = %d, want 1", got)
	}
	// The RPC itself leaves on its own goroutine, as from a sweep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		rpcs, created := w.batchRPCs, len(w.created)
		w.mu.Unlock()
		if rpcs == 1 && created == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker saw %d create RPCs carrying %d creates, want 1/1", rpcs, created)
		}
		time.Sleep(time.Millisecond)
	}

	h.call(t, proto.MethodScalingMetric, demandReport(names[:1], 1, time.Now()))
	if _, creating := h.cp.FunctionScale(names[0]); creating != 1 {
		t.Fatalf("a sandbox already on its way, yet creating = %d after a second report", creating)
	}
}

// TestScaleFromZeroRacesReconcile runs the two deciders against each
// other: every round a sweep and a report both find demand for functions
// at zero scale, and whichever gets to a function first must be the only
// one to scale it up.
func TestScaleFromZeroRacesReconcile(t *testing.T) {
	h, clk := newParkedHarness(t)
	// A worker 4000 staged sandboxes do not fill: the rounds drop them
	// from the function state without returning what they were charged.
	roomy := proto.RegisterWorkerRequest{Worker: core.WorkerNode{
		ID: 1, Name: "w1", IP: "10.0.0.1", Port: 9000, CPUMilli: 1 << 40, MemoryMB: 1 << 40,
	}}
	h.call(t, proto.MethodRegisterWorker, roomy.Marshal())
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 4)

	for round := 0; round < 1000; round++ {
		clk.Advance(time.Millisecond)
		payload := demandReport(names, 1, clk.Now())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			h.cp.Reconcile()
		}()
		go func() {
			defer wg.Done()
			if _, err := h.cp.handleScalingMetric(payload); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		// The sweep may have run wholly before the report was recorded
		// (the first round has no older demand to go on): one more sweep
		// settles every function at its desired scale of one.
		h.cp.Reconcile()
		for _, name := range names {
			h.cp.withFunction(name, func(fs *functionState) {
				if len(fs.sandboxes) != 1 || fs.placing != 0 {
					t.Fatalf("round %d: %s has %d sandboxes and %d reserved, want 1/0", round, name, len(fs.sandboxes), fs.placing)
				}
				clear(fs.sandboxes) // back to zero for the next round
			})
		}
	}
}

// TestScaleFromZeroOneAttemptPerTickWithoutCapacity: a function that
// cannot be placed gets one inline attempt between two sweeps, however
// many reports arrive, so reports do not become walks of the worker
// registry.
func TestScaleFromZeroOneAttemptPerTickWithoutCapacity(t *testing.T) {
	h, _ := newParkedHarness(t) // no worker: every placement fails
	names := registerFunctions(t, h, 3)
	failures := h.cp.Metrics().Counter("placement_failures")

	for tick := 0; tick < 3; tick++ {
		h.cp.Reconcile()
		before := failures.Value()
		for i := 0; i < 100; i++ {
			h.call(t, proto.MethodScalingMetric, demandReport(names, 1, time.Now()))
		}
		if got := failures.Value() - before; got > int64(len(names)) {
			t.Fatalf("tick %d: 100 reports cost %d placement attempts for %d functions", tick, got, len(names))
		}
		if tick == 0 && failures.Value() == before {
			t.Fatalf("the first report made no inline attempt at all")
		}
	}
	for _, name := range names {
		h.cp.withFunction(name, func(fs *functionState) {
			if fs.placing != 0 {
				t.Errorf("%s: %d reservations left behind by failed placements", name, fs.placing)
			}
		})
	}
}

// TestScalingMetricHandlerAllocations: a data plane's periodic full report
// names every function, so handling a report of idle functions must not
// allocate per metric.
func TestScalingMetricHandlerAllocations(t *testing.T) {
	h, clk := newParkedHarness(t)
	names := registerFunctions(t, h, 768)
	payload := demandReport(names, 0, clk.Now())
	report := func() {
		clk.Advance(20 * time.Millisecond)
		if _, err := h.cp.handleScalingMetric(payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		report()
	}
	if allocs := testing.AllocsPerRun(50, report); allocs != 0 {
		t.Fatalf("a 768-function idle report costs %.1f allocations, want 0", allocs)
	}
}

// TestScalingMetricTruncatedReportRefusedWhole: a report cut short is
// refused before any of it is recorded or acted on, including the metrics
// that precede the cut.
func TestScalingMetricTruncatedReportRefusedWhole(t *testing.T) {
	h, _ := newParkedHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 3)
	payload := demandReport(names, 5, time.Now())

	for _, cut := range []int{len(payload) - 1, len(payload) - 30, 7} {
		if _, err := h.cp.handleScalingMetric(payload[:cut]); err == nil {
			t.Fatalf("a report cut to %d of %d bytes was accepted", cut, len(payload))
		}
		h.cp.Reconcile() // would act on any demand the handler had recorded
		for _, name := range names {
			if ready, creating := h.cp.FunctionScale(name); ready+creating != 0 {
				t.Fatalf("cut at %d: %s scaled to %d on a refused report", cut, name, ready+creating)
			}
		}
	}
}

// desired asks the function's scaler what it wants at the harness's
// current time, without recording a sample.
func desired(t *testing.T, h *cpHarness, name string, current int) (want int) {
	t.Helper()
	now := h.cp.clk.Now()
	if !h.cp.withFunction(name, func(fs *functionState) { want = fs.desired(now, current) }) {
		t.Fatalf("%s is not registered", name)
	}
	return want
}

// readyStaged reports every sandbox of name the control plane has staged
// as ready on worker 1, as the worker would once booted, and returns how
// many there were.
func readyStaged(t *testing.T, h *cpHarness, name string) int {
	t.Helper()
	var batch proto.SandboxEventBatch
	h.cp.withFunction(name, func(fs *functionState) {
		for id, sb := range fs.sandboxes {
			if sb.phase != phaseReady {
				batch.Events = append(batch.Events, proto.SandboxEvent{SandboxID: id, Function: name, Node: 1, Addr: "10.0.0.1:9000"})
			}
		}
	})
	h.call(t, proto.MethodSandboxReadyBatch, batch.Marshal())
	return len(batch.Events)
}

// tickUntilScale runs the autoscale tick every 20 ms of virtual time until
// name has want sandboxes, ready or creating, or limit has passed.
func tickUntilScale(h *cpHarness, clk *clock.Virtual, name string, want int, limit time.Duration) bool {
	for waited := time.Duration(0); waited <= limit; waited += 20 * time.Millisecond {
		clk.Advance(20 * time.Millisecond)
		h.cp.Reconcile()
		if ready, creating := h.cp.FunctionScale(name); ready+creating == want {
			return true
		}
	}
	return false
}

// TestDemandSummedAcrossDataPlanes: the front end steers a function to one
// data plane, so the others report zero for it; the decisions must sample
// the sum of the reports, not their mean. Each data plane reports once, as
// one whose demand then holds steady does.
func TestDemandSummedAcrossDataPlanes(t *testing.T) {
	h, clk := newParkedHarness(t)
	names := registerFunctions(t, h, 1)
	h.call(t, proto.MethodScalingMetric, demandReportFrom(1, names, 6, clk.Now()))
	h.call(t, proto.MethodScalingMetric, demandReportFrom(2, names, 0, clk.Now()))
	h.call(t, proto.MethodScalingMetric, demandReportFrom(3, names, 0, clk.Now()))
	for round := 0; round < 50; round++ { // two stable windows of 20 ms ticks
		clk.Advance(20 * time.Millisecond)
		h.cp.Reconcile()
	}
	if got := desired(t, h, names[0], 6); got != 6 {
		t.Fatalf("sustained concurrency 6 on one of 3 data planes: Desired = %d, want 6", got)
	}
}

// TestScaleFromZeroOneSampleAmongIdleDataPlanes: the inline trigger still
// creates one sandbox from a single report of one queued invocation while
// the other data planes have long reported, and keep reporting, zero.
func TestScaleFromZeroOneSampleAmongIdleDataPlanes(t *testing.T) {
	h, clk := newParkedHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 1)
	for round := 0; round < 30; round++ {
		clk.Advance(20 * time.Millisecond)
		for dp := core.DataPlaneID(1); dp <= 3; dp++ {
			h.call(t, proto.MethodScalingMetric, demandReportFrom(dp, names, 0, clk.Now()))
		}
	}
	h.call(t, proto.MethodScalingMetric, demandReportFrom(1, names, 1, clk.Now()))
	h.call(t, proto.MethodScalingMetric, demandReportFrom(2, names, 0, clk.Now()))
	h.call(t, proto.MethodScalingMetric, demandReportFrom(3, names, 0, clk.Now()))
	if ready, creating := h.cp.FunctionScale(names[0]); ready != 0 || creating != 1 {
		t.Fatalf("after one cold report: ready=%d creating=%d, want 0/1", ready, creating)
	}
}

// TestOneReportHoldsDemandUntilChanged: a data plane reports a function
// only when its demand changes, so one report of 6 must hold the decisions
// at 6 for as long as nothing else arrives, and one report of 0 must then
// take the function down after its grace period.
func TestOneReportHoldsDemandUntilChanged(t *testing.T) {
	h, clk := newParkedHarness(t)
	clk.Advance(time.Minute) // past the default no-downscale window after taking the lead
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 1)
	spec := fnSpec(names[0]).Scaling

	h.call(t, proto.MethodScalingMetric, demandReport(names, 6, clk.Now()))
	if n := readyStaged(t, h, names[0]); n != 6 {
		t.Fatalf("one report of 6 staged %d sandboxes, want 6", n)
	}
	for held := time.Duration(0); held < 2*spec.StableWindow; held += 20 * time.Millisecond {
		clk.Advance(20 * time.Millisecond)
		h.cp.Reconcile()
		if ready, creating := h.cp.FunctionScale(names[0]); ready != 6 || creating != 0 {
			t.Fatalf("%v after the only report: ready=%d creating=%d, want 6/0", held, ready, creating)
		}
	}
	if got := desired(t, h, names[0], 6); got != 6 {
		t.Fatalf("two stable windows after one report of 6: Desired = %d, want 6", got)
	}

	zeroAt := clk.Now()
	h.call(t, proto.MethodScalingMetric, demandReport(names, 0, zeroAt))
	if !tickUntilScale(h, clk, names[0], 0, spec.StableWindow+spec.ScaleToZeroGrace+100*time.Millisecond) {
		ready, creating := h.cp.FunctionScale(names[0])
		t.Fatalf("one report of 0 never scaled the function down: ready=%d creating=%d", ready, creating)
	}
	if took := clk.Now().Sub(zeroAt); took < spec.ScaleToZeroGrace {
		t.Fatalf("scaled to zero %v after the zero report, inside the %v grace period", took, spec.ScaleToZeroGrace)
	}
}

// TestBriefDemandBetweenTicksKeepsFunctionWarm: with a 2 s tick, a 200 ms
// call every 5 s falls wholly between two decisions, which only ever see
// the held 0. The reported 1 and 0 must themselves reach the scaler, or
// the function is scaled to zero while it is still being called.
func TestBriefDemandBetweenTicksKeepsFunctionWarm(t *testing.T) {
	h, clk := newParkedHarness(t)
	clk.Advance(time.Minute) // past the default no-downscale window after taking the lead
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	fn := fnSpec("brief")
	fn.Scaling = core.DefaultScalingConfig() // 60 s window, 30 s grace
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	names := []string{fn.Name}

	const step = 100 * time.Millisecond
	for at := time.Duration(0); at < 5*time.Minute; at += step {
		clk.Advance(step)
		switch at % (5 * time.Second) {
		case 500 * time.Millisecond: // a call arrives ...
			h.call(t, proto.MethodScalingMetric, demandReport(names, 1, clk.Now()))
			readyStaged(t, h, fn.Name)
		case 700 * time.Millisecond: // ... and is done before the next tick
			h.call(t, proto.MethodScalingMetric, demandReport(names, 0, clk.Now()))
		}
		if at%(2*time.Second) != 0 {
			continue
		}
		h.cp.Reconcile()
		if ready, creating := h.cp.FunctionScale(fn.Name); at > time.Second && ready+creating == 0 {
			t.Fatalf("scaled to zero %v in, with a call every 5 s", at)
		}
	}
}

// TestPrunedDataPlaneStopsCounting: a data plane's last report stays in
// the sum the decisions sample only until the health sweep fails the
// replica (or it deregisters); a revived replica counts again from its
// next report.
func TestPrunedDataPlaneStopsCounting(t *testing.T) {
	tr := transport.NewInProc()
	clk := clock.NewVirtual(time.Unix(5000, 0))
	cp := newDPLifecycleCP(t, tr, clk) // DataPlaneTimeout 3 s
	h := &cpHarness{tr: tr, cp: cp}
	names := registerFunctions(t, h, 1)
	// survivors advances time by d in 100 ms periods: in each, data planes
	// 1 and 2 heartbeat and the control plane ticks. Their demand is the
	// zero they reported once.
	survivors := func(d time.Duration) {
		for ; d > 0; d -= 100 * time.Millisecond {
			clk.Advance(100 * time.Millisecond)
			for dp := core.DataPlaneID(1); dp <= 2; dp++ {
				dpHeartbeat(t, tr, dp, "dp", 8000+uint16(dp))
			}
			cp.Reconcile()
		}
	}
	window := fnSpec("").Scaling.StableWindow + 100*time.Millisecond
	for dp := core.DataPlaneID(1); dp <= 3; dp++ {
		registerDP(t, tr, dp, "dp", 8000+uint16(dp))
	}
	for dp := core.DataPlaneID(1); dp <= 2; dp++ {
		h.call(t, proto.MethodScalingMetric, demandReportFrom(dp, names, 0, clk.Now()))
	}

	h.call(t, proto.MethodScalingMetric, demandReportFrom(3, names, 6, clk.Now()))
	// Data plane 3 falls silent. Until the sweep fails it its 6 stays in
	// every sum: over-provisioned, never under-provisioned.
	survivors(3 * time.Second)
	cp.HealthSweep() // exactly at the timeout: not failed yet
	if got := desired(t, h, names[0], 6); got != 6 {
		t.Fatalf("before the sweep fails the silent replica: Desired = %d, want 6", got)
	}
	survivors(100 * time.Millisecond)
	cp.HealthSweep()
	if got := cp.DataPlaneCount(); got != 2 {
		t.Fatalf("DataPlaneCount = %d after the sweep, want 2", got)
	}
	survivors(window)
	if got := desired(t, h, names[0], 6); got != 0 {
		t.Fatalf("a window after the sweep failed the replica: Desired = %d, want 0", got)
	}

	// Revived, its next report counts again.
	dpHeartbeat(t, tr, 3, "dp", 8003)
	h.call(t, proto.MethodScalingMetric, demandReportFrom(3, names, 6, clk.Now()))
	survivors(window)
	if got := desired(t, h, names[0], 6); got != 6 {
		t.Fatalf("after the replica revived and reported: Desired = %d, want 6", got)
	}
	// Deregistered, it stops counting at once.
	gone := proto.RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: 3, IP: "dp", Port: 8003}}
	h.call(t, proto.MethodDeregisterDataPlane, gone.Marshal())
	survivors(window)
	if got := desired(t, h, names[0], 6); got != 0 {
		t.Fatalf("a window after the replica deregistered: Desired = %d, want 0", got)
	}
}
