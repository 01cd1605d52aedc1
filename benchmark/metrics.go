package main

// metricDecl declares one metric as BENCHMARK.json does; TestSmoke keeps
// the two in step.
type metricDecl struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: the share it may worsen by
}

// endToEnd is what a user of the cluster sees. Every timing metric is the
// mean over the best quarter of the window's 1 s slices of the per-slice
// value (sliceSet.best says why).
var endToEnd = []metricDecl{
	{name: "latency_p50_us", unit: "us", bound: 0.25},
	{name: "latency_p99_us", unit: "us", bound: 0.25},
	{name: "throughput_ops_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "cpu_ms_per_kop", unit: "ms/kop", bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.10},
	{name: "heap_live_mb", unit: "MB", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer is what a traced run reports; README.md says which end-to-end
// metric each should move, and on which workload.
var perLayer = []metricDecl{
	// Invoke path, from spans joined by request ID.
	{name: "frontend.self_us_p50", unit: "us"},
	{name: "frontend.self_us_p99", unit: "us"},
	{name: "dataplane.self_us_p50", unit: "us"},
	{name: "dataplane.self_us_p99", unit: "us"},
	{name: "worker.self_us_p50", unit: "us"},
	{name: "transport.hop_us_p50", unit: "us"},
	{name: "transport.hop_us_p99", unit: "us"},
	{name: "transport.rpcs_per_op", unit: "count"},
	{name: "transport.bytes_per_op", unit: "B"},
	// Cold path, from spans joined by function name and sandbox ID.
	{name: "dataplane.queue_wait_ms_p50", unit: "ms"},
	{name: "dataplane.queue_wait_ms_p99", unit: "ms"},
	{name: "dataplane.metric_wait_ms_p50", unit: "ms"},
	{name: "controlplane.autoscale_wait_ms_p50", unit: "ms"},
	{name: "controlplane.autoscale_wait_ms_p99", unit: "ms"},
	{name: "worker.create_ms_p50", unit: "ms"},
	{name: "worker.create_ms_p99", unit: "ms"},
	{name: "controlplane.ready_fanout_us_p50", unit: "us"},
	{name: "controlplane.ready_fanout_us_p99", unit: "us"},
	{name: "dataplane.dequeue_us_p50", unit: "us"},
	{name: "controlplane.create_batch_mean", unit: "count", higher: true},
	{name: "worker.ready_batch_mean", unit: "count", higher: true},
	{name: "controlplane.rpcs_per_cold_start", unit: "count"},
	// Control plane outside the window.
	{name: "controlplane.register_us_per_fn", unit: "us"},
	{name: "controlplane.dp_broadcast_bytes_per_register", unit: "B"},
	{name: "controlplane.reconcile_us_per_fn", unit: "us"},
	// Fixed-iteration probes of single exported calls.
	{name: "transport.tcp_call_us", unit: "us"},
	{name: "transport.tcp_call_allocs", unit: "count"},
	{name: "transport.inproc_call_ns", unit: "ns"},
	{name: "proto.invoke_codec_ns", unit: "ns"},
	{name: "proto.invoke_codec_allocs", unit: "count"},
	{name: "loadbalancer.pick_ns", unit: "ns"},
	{name: "telemetry.counter_lookup_ns", unit: "ns"},
	{name: "telemetry.observe_ns", unit: "ns"},
	{name: "placement.place_us", unit: "us"},
	{name: "autoscaler.desired_ns", unit: "ns"},
	{name: "sandbox.create_us", unit: "us"},
	// Process and generator.
	{name: "process.alloc_bytes_per_op", unit: "B"},
	{name: "process.gc_pause_ms_per_s", unit: "ms/s"},
	{name: "process.goroutines", unit: "count"},
	{name: "gen.late_us_p99", unit: "us"},
	{name: "gen.cold_share", unit: "share"},
	{name: "trace.overhead_share", unit: "share"},
}
