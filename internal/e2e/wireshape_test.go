package e2e

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// recordingTransport logs each call made through it: destination, method
// and payload size.
type recordingTransport struct {
	transport.Transport
	mu  sync.Mutex
	log []recordedCall
}

type recordedCall struct {
	addr, method string
	size         int
}

func newRecordingTransport() *recordingTransport {
	return &recordingTransport{Transport: transport.NewInProc()}
}

func (r *recordingTransport) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	r.mu.Lock()
	r.log = append(r.log, recordedCall{addr: addr, method: method, size: len(payload)})
	r.mu.Unlock()
	return r.Transport.Call(ctx, addr, method, payload)
}

// since returns the calls of the given methods logged from index from on.
func (r *recordingTransport) since(from int, methods ...string) []recordedCall {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []recordedCall
	for _, c := range r.log[from:] {
		if slices.Contains(methods, c.method) {
			out = append(out, c)
		}
	}
	return out
}

// mark returns the index the next logged call will take.
func (r *recordingTransport) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}

// TestColdStartWireShape pins the one RPC shape per cold-start step: a
// cold start and the scale-down after it travel as exactly the four batch
// methods, and the retired singleton names are refused by every tier.
func TestColdStartWireShape(t *testing.T) {
	rec := newRecordingTransport()
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
	for _, c := range rec.log {
		for _, step := range []string{"CreateSandbox", "SandboxReady", "UpdateEndpoints", "KillSandbox"} {
			if strings.Contains(c.method, step) && !slices.Contains(got, c.method) {
				got = append(got, c.method)
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

// TestRegistrationWireShape pins what function metadata costs on the
// wire: a registration sends each data plane one dp.AddFunction whose
// size does not grow with the registry, a deregistration one
// dp.RemoveFunction and no endpoint update, and the full list
// (dp.SyncFunctions) goes out only when a data plane is admitted.
func TestRegistrationWireShape(t *testing.T) {
	rec := newRecordingTransport()
	const cpAddr = "cp:7000"
	dpAddrs := []string{"dp1:8000", "dp2:8000"}
	cp := controlplane.New(controlplane.Config{
		Addr:              cpAddr,
		Transport:         rec,
		DB:                store.NewMemory(),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	for i, addr := range dpAddrs {
		dp := dataplane.New(dataplane.Config{
			ID:             core.DataPlaneID(i + 1),
			Addr:           addr,
			Transport:      rec,
			ControlPlanes:  []string{cpAddr},
			MetricInterval: time.Hour,
		})
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		defer dp.Stop()
	}

	// perDataPlane checks that calls holds exactly one call to each data
	// plane and returns their common payload size.
	perDataPlane := func(what string, calls []recordedCall) int {
		t.Helper()
		var got []string
		for _, c := range calls {
			got = append(got, c.addr)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, dpAddrs) {
			t.Fatalf("%s reached %v, want each of %v once", what, got, dpAddrs)
		}
		if calls[0].size != calls[1].size {
			t.Fatalf("%s sizes differ between data planes: %d, %d", what, calls[0].size, calls[1].size)
		}
		return calls[0].size
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fn := func(i int) core.Function {
		return core.Function{Name: fmt.Sprintf("fn-%03d", i), Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
	}
	register := func(i int) []recordedCall {
		t.Helper()
		from := rec.mark()
		f := fn(i)
		if _, err := rec.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&f)); err != nil {
			t.Fatal(err)
		}
		return rec.since(from, proto.MethodAddFunction, proto.MethodSyncFunctions)
	}

	perDataPlane("admission sync", rec.since(0, proto.MethodSyncFunctions))
	first := perDataPlane("the 1st registration", register(1))
	for i := 2; i < 65; i++ {
		register(i)
	}
	if last := perDataPlane("the 65th registration", register(65)); last != first {
		t.Errorf("the 65th registration sent %d bytes per data plane, the 1st %d: cost grows with the registry", last, first)
	}

	from := rec.mark()
	gone := fn(7)
	if _, err := rec.Call(ctx, cpAddr, proto.MethodDeregisterFunction, core.MarshalFunction(&gone)); err != nil {
		t.Fatal(err)
	}
	cp.Stop() // waits for every fan-out the deregistration started
	perDataPlane("the deregistration", rec.since(from, proto.MethodRemoveFunction))
	if ups := rec.since(from, proto.MethodUpdateEndpointsBatch, proto.MethodAddFunction, proto.MethodSyncFunctions); len(ups) != 0 {
		t.Errorf("the deregistration also sent %v", ups)
	}
	if n := len(rec.since(0, proto.MethodSyncFunctions)); n != len(dpAddrs) {
		t.Errorf("%d dp.SyncFunctions calls, want %d: one per admission", n, len(dpAddrs))
	}
}

// TestScalingReportWireShape pins what scaling reports cost on the wire:
// a data plane reports a function only when its demand changes, plus a
// full report after Start and every 50th period. Over 50 periods of 256
// idle functions, each of 3 data planes sends at most two full reports'
// worth of cp.ScalingMetric payload, not one per period.
func TestScalingReportWireShape(t *testing.T) {
	const (
		cpAddr          = "cp:7000"
		functions       = 256
		fullReportEvery = 50 // the data plane's constant of the same name
		metricInterval  = 20 * time.Millisecond
	)
	shared := transport.NewInProc()
	cp := controlplane.New(controlplane.Config{
		Addr:              cpAddr,
		Transport:         shared,
		DB:                store.NewMemory(),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()
	// Each data plane calls through its own recorder, so the log says who
	// sent what; only the data planes run on the virtual clock.
	clk := clock.NewVirtual(time.Unix(1000, 0))
	var recs []*recordingTransport
	for i := 1; i <= 3; i++ {
		rec := &recordingTransport{Transport: shared}
		dp := dataplane.New(dataplane.Config{
			ID:                core.DataPlaneID(i),
			Addr:              fmt.Sprintf("dp%d:8000", i),
			Transport:         rec,
			ControlPlanes:     []string{cpAddr},
			Clock:             clk,
			MetricInterval:    metricInterval,
			HeartbeatInterval: time.Hour,
		})
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		defer dp.Stop()
		recs = append(recs, rec)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	full := proto.ScalingMetricReport{DataPlane: 1}
	for i := 0; i < functions; i++ {
		f := core.Function{Name: fmt.Sprintf("fn-%03d", i), Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
		if _, err := shared.Call(ctx, cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&f)); err != nil {
			t.Fatal(err)
		}
		full.Metrics = append(full.Metrics, core.ScalingMetric{Function: f.Name})
	}
	fullBytes := len(full.Marshal())

	// armed waits until every data plane's metric and heartbeat timers are
	// pending: each loop is waiting for its next period.
	armed := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); clk.PendingTimers() != 6; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d timers pending, want each data plane's 2", clk.PendingTimers())
			}
		}
	}
	for period := 0; period < fullReportEvery; period++ {
		armed()
		clk.Advance(metricInterval)
	}
	armed()

	for i, rec := range recs {
		calls := rec.since(0, proto.MethodScalingMetric)
		bytes := 0
		for _, c := range calls {
			bytes += c.size
		}
		// Idle functions make no changes to report.
		if bytes < fullBytes || bytes > 2*fullBytes {
			t.Errorf("data plane %d sent %d scaling reports of %d bytes in %d periods; want one to two full reports (%d bytes each)",
				i+1, len(calls), bytes, fullReportEvery, fullBytes)
		}
	}
}
