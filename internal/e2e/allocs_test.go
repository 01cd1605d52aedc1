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
	"dirigent/internal/race"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// maxWarmInvokeAllocs is what one warm in-process invocation may cost the
// heap, front end through worker and back. Two remain: the data plane's
// response marshal, which the caller keeps through the body, and the
// front end's decoded *InvokeResponse, which Invoke returns. The request
// frames of both hops and their deadlines are pooled, and the pick, the
// decodes and the worker's dispatch make nothing.
const maxWarmInvokeAllocs = 2

// maxWarmTCPInvokeAllocs is the same invocation over loopback TCP: the two
// above plus one per hop, front end → data plane and data plane → worker.
// Each hop's one is the response body the client reads and its caller
// keeps. The server reads each request into a pooled frame and runs it on
// its connection's parked handler goroutine; frame headers, method names,
// pending-call records and the deadlines' timers cost nothing.
const maxWarmTCPInvokeAllocs = maxWarmInvokeAllocs + 2*1

// TestWarmInvokeAllocations pins the heap cost of the warm path through
// every tier, so a copy or a timer that creeps back onto it fails here and
// not only in the benchmark.
func TestWarmInvokeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	tr := transport.NewInProc()
	names := map[string]string{"cp": "cp:7000", "dp": "dp:8000", "w": "10.9.0.1:9000"}
	allocs := warmInvokeAllocs(t, tr, func(name string) string { return names[name] })
	t.Logf("%.0f allocations per warm invocation", allocs)
	if allocs > maxWarmInvokeAllocs {
		t.Errorf("a warm invocation allocates %.0f times, want at most %d", allocs, maxWarmInvokeAllocs)
	}
}

// TestWarmTCPInvokeAllocations is TestWarmInvokeAllocations over the TCP
// transport, so the wire's own cost per hop is pinned too.
func TestWarmTCPInvokeAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	tr := transport.NewTCP()
	defer tr.Close()
	allocs := warmInvokeAllocs(t, tr, func(string) string { return "127.0.0.1:0" })
	t.Logf("%.0f allocations per warm invocation over TCP", allocs)
	if allocs > maxWarmTCPInvokeAllocs {
		t.Errorf("a warm TCP invocation allocates %.0f times, want at most %d", allocs, maxWarmTCPInvokeAllocs)
	}
}

// warmInvokeAllocs starts a control plane, a data plane, a worker and a
// front end on tr, at the addresses addr gives the names "cp", "dp" and
// "w", and returns the allocations of one warm invocation. Each component
// is then reached at the address it reports, so a TCP address on port 0
// names the port it was given.
func warmInvokeAllocs(t *testing.T, tr transport.Transport, addr func(name string) string) float64 {
	t.Helper()
	cpAddr, dpAddr, wAddr := addr("cp"), addr("dp"), addr("w")
	ip, port, _ := splitHostPort(wAddr)

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
	cpAddr = cp.Addr()
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
	dpAddr = dp.Addr()
	w := worker.New(worker.Config{
		Node:              core.WorkerNode{ID: 1, Name: "w1", IP: ip, Port: port, CPUMilli: 10000, MemoryMB: 65536},
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
	return testing.AllocsPerRun(2000, func() {
		if _, err := lb.Invoke(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
}
