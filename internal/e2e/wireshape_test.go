package e2e

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// recordingTransport counts the calls made through it by method name.
type recordingTransport struct {
	transport.Transport
	mu    sync.Mutex
	calls map[string]int
}

func (r *recordingTransport) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	r.mu.Lock()
	r.calls[method]++
	r.mu.Unlock()
	return r.Transport.Call(ctx, addr, method, payload)
}

// TestColdStartWireShape pins the one RPC shape per cold-start step: a
// cold start and the scale-down after it travel as exactly the four batch
// methods, and the retired singleton names are refused by every tier.
func TestColdStartWireShape(t *testing.T) {
	rec := &recordingTransport{Transport: transport.NewInProc(), calls: make(map[string]int)}
	const cpAddr, dpAddr, wAddr = "cp:7000", "dp:8000", "10.9.0.1:9000"

	cp := controlplane.New(controlplane.Config{
		Addr:              cpAddr,
		Transport:         rec,
		DB:                store.NewMemory(),
		AutoscaleInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  time.Hour,
		NoDownscaleWindow: time.Millisecond,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	dp := dataplane.New(dataplane.Config{
		ID:             1,
		Addr:           dpAddr,
		Transport:      rec,
		ControlPlanes:  []string{cpAddr},
		MetricInterval: 5 * time.Millisecond,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	w := worker.New(worker.Config{
		Node:              core.WorkerNode{ID: 1, Name: "w1", IP: "10.9.0.1", Port: 9000, CPUMilli: 10000, MemoryMB: 65536},
		Addr:              wAddr,
		Runtime:           &sandbox.Null{},
		Transport:         rec,
		ControlPlanes:     []string{cpAddr},
		HeartbeatInterval: time.Hour,
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()

	fn := core.Function{Name: "f", Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.StableWindow = 100 * time.Millisecond
	fn.Scaling.PanicWindow = 20 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := rec.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	req := proto.InvokeRequest{Function: "f", Payload: []byte("x")}
	respB, err := rec.Call(ctx, dpAddr, proto.MethodInvoke, req.Marshal())
	if err != nil {
		t.Fatalf("cold invoke: %v", err)
	}
	if resp, err := proto.UnmarshalInvokeResponse(respB); err != nil || !resp.ColdStart {
		t.Fatalf("invoke = %+v, %v; want a cold start", resp, err)
	}
	// Idle now: the autoscaler scales to zero and the worker is told to kill.
	for deadline := time.Now().Add(5 * time.Second); w.Metrics().Counter("sandboxes_killed").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the idle sandbox was never scaled down")
		}
	}

	rec.mu.Lock()
	var got []string
	for method := range rec.calls {
		for _, step := range []string{"CreateSandbox", "SandboxReady", "UpdateEndpoints", "KillSandbox"} {
			if strings.Contains(method, step) {
				got = append(got, method)
			}
		}
	}
	rec.mu.Unlock()
	want := []string{proto.MethodCreateSandboxBatch, proto.MethodSandboxReadyBatch, proto.MethodUpdateEndpointsBatch, proto.MethodKillSandboxBatch}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cold start and scale-down used %v, want exactly %v", got, want)
	}

	for _, method := range []string{proto.MethodCreateSandbox, proto.MethodKillSandbox, proto.MethodSandboxReady, proto.MethodUpdateEndpoints} {
		for _, addr := range []string{wAddr, cpAddr, dpAddr} {
			if _, err := rec.Call(ctx, addr, method, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
				t.Errorf("%s sent to %s: err = %v, want unknown method", method, addr, err)
			}
		}
	}
}
