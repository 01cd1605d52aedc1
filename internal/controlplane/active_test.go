package controlplane

import (
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
)

// TestSweepWalksActiveFunctionsOnly: registered functions nobody invokes
// cost the sweep nothing, tick after tick; one with demand is walked until
// it has scaled to zero and gone idle, and then no more.
func TestSweepWalksActiveFunctionsOnly(t *testing.T) {
	h, clk := newParkedHarness(t)
	clk.Advance(time.Minute) // past the default no-downscale window after taking the lead
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 100)
	spec := fnSpec("").Scaling
	for i := 0; i < 10; i++ {
		clk.Advance(20 * time.Millisecond)
		h.cp.Reconcile()
	}
	if active, steps := h.cp.ActiveFunctions(); active != 0 || steps != 0 {
		t.Fatalf("100 idle functions, 10 ticks: %d active, %d decisions; want none", active, steps)
	}
	// A report of zeros for idle functions stores nothing and wakes none.
	h.call(t, proto.MethodScalingMetric, demandReport(names, 0, clk.Now()))
	if active, _ := h.cp.ActiveFunctions(); active != 0 {
		t.Fatalf("a report of zeros woke %d functions", active)
	}

	h.call(t, proto.MethodScalingMetric, demandReport(names[:1], 1, clk.Now()))
	readyStaged(t, h, names[0])
	h.call(t, proto.MethodScalingMetric, demandReport(names[:1], 0, clk.Now()))
	if active, _ := h.cp.ActiveFunctions(); active != 1 {
		t.Fatalf("after one function's demand: %d active, want 1", active)
	}
	if !tickUntilScale(h, clk, names[0], 0, spec.StableWindow+spec.ScaleToZeroGrace+time.Second) {
		t.Fatal("the function never scaled to zero")
	}
	for i := 0; i < 100; i++ {
		clk.Advance(20 * time.Millisecond)
		h.cp.Reconcile()
	}
	active, before := h.cp.ActiveFunctions()
	if active != 0 {
		t.Fatalf("scaled to zero and quiet for 2 s: %d active, want 0", active)
	}
	clk.Advance(20 * time.Millisecond)
	h.cp.Reconcile()
	if _, after := h.cp.ActiveFunctions(); after != before {
		t.Fatalf("a tick over idle functions took %d decisions", after-before)
	}
	h.cp.withFunction(names[0], func(fs *functionState) {
		if fs.scaler != nil || fs.sandboxes != nil || fs.demand != nil {
			t.Errorf("an idle function holds scaler %v, sandboxes %v, demand %v", fs.scaler, fs.sandboxes, fs.demand)
		}
	})
}

// TestIdleFunctionWakesFromOneTrigger: a function idle for far longer than
// its window cold-starts from a single report of one queued invocation,
// in the report's handler, as one never invoked does.
func TestIdleFunctionWakesFromOneTrigger(t *testing.T) {
	h, clk := newParkedHarness(t)
	clk.Advance(time.Minute)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 1)
	spec := fnSpec("").Scaling
	for cycle := 0; cycle < 3; cycle++ {
		h.call(t, proto.MethodScalingMetric, demandReport(names, 1, clk.Now()))
		if ready, creating := h.cp.FunctionScale(names[0]); ready != 0 || creating != 1 {
			t.Fatalf("cycle %d: after one cold report ready=%d creating=%d, want 0/1", cycle, ready, creating)
		}
		readyStaged(t, h, names[0])
		h.call(t, proto.MethodScalingMetric, demandReport(names, 0, clk.Now()))
		if !tickUntilScale(h, clk, names[0], 0, spec.StableWindow+spec.ScaleToZeroGrace+time.Second) {
			t.Fatalf("cycle %d: never scaled to zero", cycle)
		}
		h.cp.Reconcile()
		if active, _ := h.cp.ActiveFunctions(); active != 0 {
			t.Fatalf("cycle %d: %d active at zero scale, want 0", cycle, active)
		}
		clk.Advance(10 * spec.StableWindow)
		if got := desired(t, h, names[0], 0); got != 0 {
			t.Fatalf("cycle %d: an idle function wants %d sandboxes", cycle, got)
		}
	}
}

// TestMinScaleFunctionStaysActive: a function whose MinScale wants a
// sandbox is active from its registration and keeps its sandbox through
// any length of quiet.
func TestMinScaleFunctionStaysActive(t *testing.T) {
	h, clk := newParkedHarness(t)
	clk.Advance(time.Minute)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	fn := fnSpec("warm")
	fn.Scaling.MinScale = 1
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	if active, _ := h.cp.ActiveFunctions(); active != 1 {
		t.Fatalf("a MinScale 1 function at registration: %d active, want 1", active)
	}
	h.cp.Reconcile()
	if n := readyStaged(t, h, fn.Name); n != 1 {
		t.Fatalf("the first tick staged %d sandboxes, want 1", n)
	}
	for i := 0; i < 200; i++ {
		clk.Advance(20 * time.Millisecond)
		h.cp.Reconcile()
		if ready, creating := h.cp.FunctionScale(fn.Name); ready != 1 || creating != 0 {
			t.Fatalf("tick %d: ready=%d creating=%d, want 1/0", i, ready, creating)
		}
	}
	if active, _ := h.cp.ActiveFunctions(); active != 1 {
		t.Fatalf("after 4 s of quiet: %d active, want 1", active)
	}
}

// TestReRegistrationUpdatesScaling: the scaling config of a re-registration
// drives the next decision, whether the function was idle or active.
func TestReRegistrationUpdatesScaling(t *testing.T) {
	for _, wasActive := range []bool{false, true} {
		name := "idle"
		if wasActive {
			name = "active"
		}
		t.Run(name, func(t *testing.T) {
			h, clk := newParkedHarness(t)
			clk.Advance(time.Minute)
			registerWorker(t, h, 1, "w1", "10.0.0.1")
			startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
			fn := fnSpec("f")
			h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
			if wasActive {
				h.call(t, proto.MethodScalingMetric, demandReport([]string{fn.Name}, 1, clk.Now()))
				readyStaged(t, h, fn.Name)
			}
			fn.Scaling.MinScale = 2
			h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
			h.cp.Reconcile()
			if ready, creating := h.cp.FunctionScale(fn.Name); ready+creating != 2 {
				t.Fatalf("re-registered with MinScale 2: ready=%d creating=%d, want 2 in all", ready, creating)
			}
		})
	}
}

// TestDeregisteredFunctionLeavesActiveList: deregistering an active
// function takes it out of the sweep at once.
func TestDeregisteredFunctionLeavesActiveList(t *testing.T) {
	h, clk := newParkedHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	startFakeWorker(t, h.tr, h.cp.Addr(), 1, "10.0.0.1:9000", false)
	names := registerFunctions(t, h, 2)
	h.call(t, proto.MethodScalingMetric, demandReport(names, 3, clk.Now()))
	if active, _ := h.cp.ActiveFunctions(); active != 2 {
		t.Fatalf("%d active, want 2", active)
	}
	fn := fnSpec(names[0])
	h.call(t, proto.MethodDeregisterFunction, core.MarshalFunction(&fn))
	if active, _ := h.cp.ActiveFunctions(); active != 1 {
		t.Fatalf("after a deregistration: %d active, want 1", active)
	}
	_, before := h.cp.ActiveFunctions()
	h.cp.Reconcile()
	if _, after := h.cp.ActiveFunctions(); after-before != 1 {
		t.Fatalf("a tick took %d decisions, want 1", after-before)
	}
}
