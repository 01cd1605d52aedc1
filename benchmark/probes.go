package main

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"dirigent/internal/autoscaler"
	"dirigent/internal/core"
	"dirigent/internal/loadbalancer"
	"dirigent/internal/placement"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// A probe times a fixed number of calls of one exported function, once,
// after the workload. It puts a number on a layer that the spans cannot
// resolve or that the workload's latency hides; the iteration counts are
// fixed so the whole set takes about a second.

// timeCalls returns the mean time in nanoseconds and the mean heap
// allocations of n calls of f.
func timeCalls(n int, f func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeSink keeps results alive so the compiler cannot drop the calls.
var probeSink atomic.Int64

// probeReconcile times reconcile passes over the workload's now idle
// functions, on its live control plane.
func probeReconcile(c *cluster, functions int, v map[string]float64) {
	ns, _ := timeCalls(20, c.cp.Reconcile)
	v["controlplane.reconcile_us_per_fn"] = ns / 1e3 / float64(functions)
}

// runProbes times the calls that need no cluster; the workload's own is
// stopped by now, so its background loops do not compete.
func runProbes(v map[string]float64) {
	us := func(ns float64) float64 { return ns / 1e3 }
	payload := make([]byte, payloadSize)
	echo := func(_ string, p []byte) ([]byte, error) { return p, nil }
	ctx := context.Background()

	inproc := transport.NewInProc()
	if ln, err := inproc.Listen("probe", echo); err == nil {
		d, _ := timeCalls(200000, func() { _, _ = inproc.Call(ctx, "probe", "m", payload) })
		v["transport.inproc_call_ns"] = d
		ln.Close()
	}
	tcp := transport.NewTCP()
	if ln, err := tcp.Listen("127.0.0.1:0", echo); err == nil {
		addr := ln.Addr()
		_, _ = tcp.Call(ctx, addr, "m", payload) // dial outside the timing
		d, allocs := timeCalls(3000, func() { _, _ = tcp.Call(ctx, addr, "m", payload) })
		v["transport.tcp_call_us"], v["transport.tcp_call_allocs"] = us(d), allocs
		tcp.Close()
		ln.Close()
	}

	d, allocs := timeCalls(200000, func() {
		req := proto.InvokeRequest{Function: "fn-0000", Payload: payload}
		r, _ := proto.UnmarshalInvokeRequest(req.Marshal())
		resp := proto.InvokeResponse{Body: r.Payload}
		b, _ := proto.UnmarshalInvokeResponse(resp.Marshal())
		probeSink.Add(int64(len(b.Body)))
	})
	v["proto.invoke_codec_ns"], v["proto.invoke_codec_allocs"] = d, allocs

	// Least-loaded pick over 8 idle endpoints, the data plane's default.
	eps := make([]loadbalancer.SnapshotEndpoint, 8)
	for i := range eps {
		eps[i] = loadbalancer.SnapshotEndpoint{SandboxID: core.SandboxID(i + 1), InFlight: new(atomic.Int64), Capacity: 1}
	}
	lb := loadbalancer.NewLeastLoaded(1)
	key := uint64(0)
	d, _ = timeCalls(1000000, func() { key++; probeSink.Add(int64(lb.PickIndex("fn-0000", key, eps))) })
	v["loadbalancer.pick_ns"] = d

	reg := telemetry.NewRegistry()
	d, _ = timeCalls(1000000, func() { reg.Counter("invocations").Inc() })
	v["telemetry.counter_lookup_ns"] = d
	h := reg.Histogram("latency_ms")
	d, _ = timeCalls(200000, func() { h.Observe(time.Millisecond) })
	v["telemetry.observe_ns"] = d

	nodes := make([]placement.NodeStatus, numWorkers)
	for i := range nodes {
		nodes[i].Node = core.WorkerNode{ID: core.NodeID(i + 1), CPUMilli: workerCPUMilli, MemoryMB: workerMemoryMB}
		nodes[i].Util.Node = nodes[i].Node.ID
	}
	placer := placement.NewKubeDefault(1)
	want := placement.Requirements{CPUMilli: 100, MemoryMB: 128}
	d, _ = timeCalls(100000, func() { id, _ := placer.Place(nodes, want); probeSink.Add(int64(id)) })
	v["placement.place_us"] = us(d)

	// A cold function's autoscaler: a 200 ms window of three data planes'
	// 20 ms reports.
	sc := core.DefaultScalingConfig()
	sc.StableWindow, sc.PanicWindow = 200*time.Millisecond, 50*time.Millisecond
	as := autoscaler.New(sc)
	now := time.Now()
	for i := 0; i < 30; i++ {
		as.Record(now.Add(time.Duration(i-30)*metricInterval/3), float64(i%2))
	}
	d, _ = timeCalls(200000, func() { probeSink.Add(int64(as.Desired(now, 1))) })
	v["autoscaler.desired_ns"] = d

	cache := sandbox.NewImageCache()
	cache.Prefetch(functionImage)
	rt := sandbox.NewContainerd(sandbox.Config{LatencyScale: 0, Images: cache, Seed: 1})
	id := core.SandboxID(0)
	fn := core.Function{Name: "fn-0000", Image: functionImage, Port: functionPort}
	d, _ = timeCalls(3000, func() {
		id++
		if inst, err := rt.Create(ctx, sandbox.Spec{ID: id, Function: fn}); err == nil {
			_ = rt.Kill(inst.ID)
		}
	})
	v["sandbox.create_us"] = us(d)
}
