package fleet_test

import (
	"context"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/fleet"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

func fnSpec(name string, minScale int) core.Function {
	fn := core.Function{Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = minScale
	fn.Scaling.StableWindow = 10 * time.Second
	return fn
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetServesScaleUpAndSurvivesFailure covers the worker's whole
// protocol surface, over the null runtime, against a real control plane:
// registration storm, batched creates → coalesced readiness, proxied
// invocations, scale-down kills, and crash detection by heartbeat timeout.
func TestFleetServesScaleUpAndSurvivesFailure(t *testing.T) {
	const size = 32
	tr := transport.NewInProc()
	cp := controlplane.New(controlplane.Config{
		Addr:              "fleet-cp",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: time.Hour, // sweeps driven explicitly
		HeartbeatTimeout:  300 * time.Millisecond,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	fl := fleet.New(fleet.Config{
		Size:              size,
		Transport:         tr,
		ControlPlanes:     []string{"fleet-cp"},
		HeartbeatInterval: 50 * time.Millisecond,
		Handler: func(p []byte) ([]byte, error) {
			return append([]byte("emu:"), p...), nil
		},
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	if got := cp.WorkerCount(); got != size {
		t.Fatalf("WorkerCount after registration storm = %d, want %d", got, size)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); got != size {
		t.Fatalf("fleet_size gauge = %d, want %d", got, size)
	}

	// Burst: one sandbox per worker on average, batched creates.
	const burst = 64
	fn := fnSpec("fleet-fn", burst)
	ctx := context.Background()
	if _, err := tr.Call(ctx, "fleet-cp", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	cp.Reconcile()
	waitFor(t, 10*time.Second, "burst ready", func() bool {
		ready, _ := cp.FunctionScale("fleet-fn")
		return ready >= burst
	})
	if got := fl.SandboxCount(); got < burst {
		t.Errorf("fleet holds %d sandboxes, want >= %d", got, burst)
	}

	// Proxied invocation into an emulated sandbox.
	var sb proto.SandboxInfo
	for _, w := range fl.Workers() {
		if w.SandboxCount() > 0 {
			list, err := tr.Call(ctx, w.Addr(), proto.MethodListSandboxes, nil)
			if err != nil {
				t.Fatal(err)
			}
			l, err := proto.UnmarshalSandboxList(list)
			if err != nil {
				t.Fatal(err)
			}
			sb = l.Sandboxes[0]
			break
		}
	}
	req := proto.InvokeSandboxRequest{SandboxID: sb.ID, Function: sb.Function, Payload: []byte("ping")}
	resp, err := tr.Call(ctx, sb.Addr, proto.MethodInvokeSandbox, req.Marshal())
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if string(resp) != "emu:ping" {
		t.Errorf("invoke body = %q, want %q", resp, "emu:ping")
	}

	// Scale down: deregistering kills every sandbox on the fleet.
	if _, err := tr.Call(ctx, "fleet-cp", proto.MethodDeregisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "sandboxes drained", func() bool {
		return fl.SandboxCount() == 0
	})

	// Correlated failure: 25% of the fleet crashes; heartbeat-timeout
	// sweeps must fail exactly those workers.
	stopped := fl.StopFraction(0.25)
	waitFor(t, 10*time.Second, "failed workers detected", func() bool {
		return cp.WorkerCount() == size-len(stopped)
	})
	if n := cp.Metrics().Histogram("health_sweep_ms").Count(); n == 0 {
		t.Errorf("health_sweep_ms never observed — health monitor idle")
	}
}
