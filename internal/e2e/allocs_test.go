package e2e

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// maxWarmInvokeAllocs is what one warm in-process invocation may cost the
// heap, front end through worker and back. The front end makes three: the
// request marshal, the decoded *InvokeResponse and its deadline. The data
// plane makes three: its deadline, the sandbox request marshal and the
// response marshal. The pick, the decodes and the worker's dispatch make
// none.
const maxWarmInvokeAllocs = 6

// TestWarmInvokeAllocations pins the heap cost of the warm path through
// every tier, so a copy or a timer that creeps back onto it fails here and
// not only in the benchmark.
func TestWarmInvokeAllocations(t *testing.T) {
	tr := transport.NewInProc()
	const cpAddr, dpAddr, wAddr = "cp:7000", "dp:8000", "10.9.0.1:9000"

	cp := controlplane.New(controlplane.Config{
		Addr:              cpAddr,
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	// Hour-long periods keep the background loops from allocating while
	// the invocations are counted.
	dp := dataplane.New(dataplane.Config{
		ID:                1,
		Addr:              dpAddr,
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		MetricInterval:    time.Hour,
		HeartbeatInterval: time.Hour,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	w := worker.New(worker.Config{
		Node:              core.WorkerNode{ID: 1, Name: "w1", IP: "10.9.0.1", Port: 9000, CPUMilli: 10000, MemoryMB: 65536},
		Addr:              wAddr,
		Runtime:           &sandbox.Null{},
		Transport:         tr,
		ControlPlanes:     []string{cpAddr},
		HeartbeatInterval: time.Hour,
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	lb := frontend.New(frontend.Config{Transport: tr, DataPlanes: []string{dpAddr}})

	// The benchmark's function name and payload size. A one-byte name
	// would decode to a static string, and a payload under 16 bytes would
	// share tiny-allocator blocks: both would hide allocations.
	const benchFn = "fn-0000"
	fn := core.Function{Name: benchFn, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.MinScale = 1
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); dp.EndpointCount(benchFn) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the min-scale sandbox never became an endpoint")
		}
	}

	req := &proto.InvokeRequest{Function: benchFn, Payload: bytes.Repeat([]byte("p"), 128)}
	resp, err := lb.Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ColdStart || !bytes.Equal(resp.Body, req.Payload) {
		t.Fatalf("invoke = %+v; want a warm echo", resp)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := lb.Invoke(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per warm invocation", allocs)
	if allocs > maxWarmInvokeAllocs {
		t.Errorf("a warm invocation allocates %.0f times, want at most %d", allocs, maxWarmInvokeAllocs)
	}
}
