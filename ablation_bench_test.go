// Ablation benchmarks for the individual design decisions behind
// Dirigent's headline results (paper Table 1 and §5.2.1, "Dirigent
// optimization breakdown"): compact binary state vs. K8s-style bloated
// objects, persistence-free vs. fsync-per-update state management, RPC
// transport cost, and the scheduling-policy implementations themselves.
package dirigent_test

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dirigent/internal/autoscaler"
	"dirigent/internal/codec"
	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/experiments"
	"dirigent/internal/placement"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/trace"
	"dirigent/internal/transport"
	"dirigent/internal/wal"
)

// --- State size & serialization: 16-byte records vs ~17 KB objects ---

func BenchmarkAblationSerializeCompactSandbox(b *testing.B) {
	sb := core.Sandbox{ID: 12345, Function: "resize-image", Node: 17, IP: [4]byte{10, 0, 3, 7}, Port: 30017}
	b.ReportAllocs()
	var sink [core.SandboxRecordSize]byte
	for i := 0; i < b.N; i++ {
		sink = core.MarshalSandboxRecord(&sb)
	}
	_ = sink
	b.ReportMetric(float64(core.SandboxRecordSize), "bytes_per_object")
}

func BenchmarkAblationSerializeBloatedK8sObject(b *testing.B) {
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		out := codec.BloatedEncode("Pod", "resize-image-deployment-7f9c", []byte("st"), 17*1024)
		n = len(out)
	}
	b.ReportMetric(float64(n), "bytes_per_object")
}

// --- Persistence on vs off the critical path ---

func BenchmarkAblationStoreWriteNoFsync(b *testing.B) {
	s, err := store.Open(filepath.Join(b.TempDir(), "nofsync.aof"), wal.FsyncNever)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := make([]byte, core.SandboxRecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.HSet("sandboxes", "sb", rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStoreWriteFsyncAlways(b *testing.B) {
	s, err := store.Open(filepath.Join(b.TempDir(), "fsync.aof"), wal.FsyncAlways)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := make([]byte, core.SandboxRecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.HSet("sandboxes", "sb", rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStoreWriteFsyncGroup(b *testing.B) {
	s, err := store.Open(filepath.Join(b.TempDir(), "group.aof"), wal.FsyncGroup)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := make([]byte, core.SandboxRecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.HSet("sandboxes", "sb", rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStoreWriteParallel is the group-commit ablation
// proper: many concurrent writers, fsync per mutation vs one fsync per
// batch. recs_per_fsync reports the mean group-commit batch size.
func BenchmarkAblationStoreWriteParallel(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		policy wal.FsyncPolicy
	}{
		{"fsync-always", wal.FsyncAlways},
		{"fsync-group", wal.FsyncGroup},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s, err := store.Open(filepath.Join(b.TempDir(), "par.aof"), cfg.policy)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rec := make([]byte, core.SandboxRecordSize)
			var next atomic.Uint64
			// Oversubscribe goroutines so concurrency forms even on
			// few-core machines: writers blocked in fsync overlap with
			// writers buffering the next batch.
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					field := fmt.Sprintf("sb-%d", next.Add(1)%256)
					if err := s.HSet("sandboxes", field, rec); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if rounds, records := s.SyncStats(); rounds > 0 {
				b.ReportMetric(float64(records)/float64(rounds), "recs_per_fsync")
			}
		})
	}
}

// --- Control plane sandbox transitions: fsync per mutation vs group commit ---

// benchCPSandboxTransitions measures multi-function sandbox-transition
// throughput through the full RPC path. PersistSandboxState puts one
// durable write per transition on the path so the fsync policy matters.
func benchCPSandboxTransitions(b *testing.B, policy wal.FsyncPolicy, numFns int) {
	b.Helper()
	tr := transport.NewInProc()
	db, err := store.Open(filepath.Join(b.TempDir(), "cp.aof"), policy)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	cp := controlplane.New(controlplane.Config{
		Addr:      "cp-bench",
		Transport: tr,
		DB:        db,
		// Loops parked: the benchmark drives transitions directly.
		AutoscaleInterval:   time.Hour,
		HeartbeatTimeout:    time.Hour,
		PersistSandboxState: true,
	})
	if err := cp.Start(); err != nil {
		b.Fatal(err)
	}
	defer cp.Stop()
	ctx := context.Background()
	payloads := make([][]byte, numFns)
	for i := 0; i < numFns; i++ {
		name := fmt.Sprintf("bench-fn-%d", i)
		fn := core.Function{Name: name, Image: "img", Port: 80, Runtime: "proc", Scaling: core.DefaultScalingConfig()}
		if _, err := tr.Call(ctx, "cp-bench", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			b.Fatal(err)
		}
		batch := proto.SandboxEventBatch{Events: []proto.SandboxEvent{
			{SandboxID: core.SandboxID(i + 1), Function: name, Node: 1, Addr: "10.0.0.1:9000"},
		}}
		payloads[i] = batch.Marshal()
	}
	var next atomic.Uint64
	// Oversubscribe goroutines so transitions overlap even on few-core
	// machines; each in-flight transition models one cold start.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := payloads[next.Add(1)%uint64(numFns)]
			if _, err := tr.Call(ctx, "cp-bench", proto.MethodSandboxReadyBatch, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if rounds, records := db.SyncStats(); rounds > 0 {
		b.ReportMetric(float64(records)/float64(rounds), "recs_per_fsync")
	}
	b.ReportMetric(float64(cp.Metrics().Counter("shard_lock_contended").Value())/float64(b.N), "contended_per_op")
}

// BenchmarkAblationCPSandboxThroughput is the headline end-to-end
// ablation: fsync per mutation against group-committed fsyncs on
// multi-function sandbox-transition throughput.
func BenchmarkAblationCPSandboxThroughput(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		policy wal.FsyncPolicy
	}{
		{"fsync-always", wal.FsyncAlways},
		{"fsync-group", wal.FsyncGroup},
	} {
		for _, fns := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/fns-%d", cfg.name, fns), func(b *testing.B) {
				benchCPSandboxTransitions(b, cfg.policy, fns)
			})
		}
	}
}

// --- Worker registry at fleet scale ---

// BenchmarkAblationWorkerRegistry drives a 1k-worker emulated fleet
// (internal/fleet) against the control plane's striped worker registry:
//
//   - heartbeats: steady-state heartbeat floods from the whole fleet,
//     racing continuous health sweeps and autoscale sweeps — the fleet
//     hot path. contended_per_op is the striping proof; health_sweep_ms
//     shows the sweep staying cheap while heartbeats hammer the shards.
//   - register: a registration storm — every op re-registers one of the
//     1024 workers through the full RPC + persistence path.
//   - failure-churn: correlated worker churn — every op deregisters a
//     worker (failing it and draining its sandboxes, which re-enters
//     Reconcile) and registers it back.
func BenchmarkAblationWorkerRegistry(b *testing.B) {
	const fleetSize = 1024
	newHarness := func(b *testing.B) *experiments.FleetHarness {
		b.Helper()
		h, err := experiments.NewFleetHarness(experiments.FleetConfig{
			Workers: fleetSize,
			// Park the background loops: the benchmark drives heartbeats
			// and sweeps explicitly. The huge timeout also keeps explicit
			// health sweeps from failing parked workers.
			HeartbeatInterval: time.Hour,
			HeartbeatTimeout:  time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.RegisterFleet(); err != nil {
			h.Close()
			b.Fatal(err)
		}
		return h
	}
	b.Run(fmt.Sprintf("heartbeats/workers-%d", fleetSize), func(b *testing.B) {
		h := newHarness(b)
		defer h.Close()
		// A persistently scaled function keeps the concurrent autoscale
		// sweeps reconciling real sandboxes across the fleet while it
		// heartbeats.
		if _, err := h.RegisterScaledFunction("hb-load", fleetSize/4); err != nil {
			b.Fatal(err)
		}
		workers := h.Fleet().Workers()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					h.CP().HealthSweep()
					h.CP().Reconcile()
					// Pace the sweeps so they race the heartbeat flood
					// without hot-spinning a core away from it.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		m := h.CP().Metrics()
		// Baseline after setup: the registration storm and scale-up
		// contended too, and that must not pollute the per-op metric.
		contBase := m.Counter("reg_lock_contended").Value()
		m.Histogram("health_sweep_ms").Reset()
		var next atomic.Uint64
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				workers[next.Add(1)%fleetSize].SendHeartbeat()
			}
		})
		b.StopTimer()
		close(stop)
		<-done
		b.ReportMetric(float64(m.Counter("reg_lock_contended").Value()-contBase)/float64(b.N), "contended_per_op")
		b.ReportMetric(m.Histogram("health_sweep_ms").Percentile(50), "health_sweep_p50_ms")
		b.ReportMetric(float64(m.Gauge("fleet_size").Value()), "fleet_size")
	})
	b.Run(fmt.Sprintf("register/workers-%d", fleetSize), func(b *testing.B) {
		h := newHarness(b)
		defer h.Close()
		workers := h.Fleet().Workers()
		m := h.CP().Metrics()
		contBase := m.Counter("reg_lock_contended").Value()
		var next atomic.Uint64
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := workers[next.Add(1)%fleetSize].Register(); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(m.Counter("reg_lock_contended").Value()-contBase)/float64(b.N), "contended_per_op")
	})
	b.Run(fmt.Sprintf("failure-churn/workers-%d", fleetSize), func(b *testing.B) {
		h := newHarness(b)
		defer h.Close()
		// Sandboxes across the fleet so every deregistration drains real
		// endpoints and the drain's Reconcile re-places them.
		if _, err := h.RegisterScaledFunction("churn-load", fleetSize/4); err != nil {
			b.Fatal(err)
		}
		workers := h.Fleet().Workers()
		ctx := context.Background()
		m := h.CP().Metrics()
		contBase := m.Counter("reg_lock_contended").Value()
		failBase := m.Counter("worker_failures_detected").Value()
		var next atomic.Uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := workers[next.Add(1)%fleetSize]
			req := proto.RegisterWorkerRequest{Worker: w.Node()}
			if _, err := h.Transport().Call(ctx, "fleet-cp", proto.MethodDeregisterWorker, req.Marshal()); err != nil {
				b.Fatal(err)
			}
			if err := w.Register(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(m.Counter("reg_lock_contended").Value()-contBase)/float64(b.N), "contended_per_op")
		b.ReportMetric(float64(m.Counter("worker_failures_detected").Value()-failBase)/float64(b.N), "fails_per_op")
	})
}

// --- Multi-data-plane tier: async dispatch through the replicas ---

// BenchmarkAblationMultiDP measures asynchronous dispatch throughput
// through the full multi-replica tier — front end (rendezvous steering +
// membership) → data plane async queue (persist, dispatch, settle) →
// emulated workers. Each op is one async invocation accepted, durably
// persisted, dispatched, and settled; the flood runs in waves so
// acceptance, dispatch and persistence overlap the way a sustained async
// workload's do.
func BenchmarkAblationMultiDP(b *testing.B) {
	for _, replicas := range []int{1, 4} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			h, err := experiments.NewMultiDPHarness(experiments.MultiDPConfig{Replicas: replicas})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			const wave = 1024
			accepted := 0
			b.ResetTimer()
			for done := 0; done < b.N; done += wave {
				n := wave
				if b.N-done < n {
					n = b.N - done
				}
				got, _, err := h.AsyncFlood(n)
				if err != nil {
					b.Fatal(err)
				}
				accepted += got
			}
			b.StopTimer()
			if accepted < b.N {
				b.Fatalf("accepted %d of %d async invocations", accepted, b.N)
			}
		})
	}
}

// --- Durable async failover: leased takeover ---

// BenchmarkAblationAsyncLease measures one full async failover cycle —
// flood the replicas' shared durable queue, kill a replica mid-drain,
// and wait for the acknowledged backlog to reach zero while the control
// plane leases the victim's records to survivors. Each op is one
// kill-to-empty cycle; reviving the victim for the next cycle (which
// recalls the lease) is off the clock.
func BenchmarkAblationAsyncLease(b *testing.B) {
	h, err := experiments.NewAsyncLeaseHarness(experiments.AsyncLeaseConfig{
		Replicas:     3,
		HandlerDelay: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Flood(96); err != nil {
			b.Fatal(err)
		}
		victims := h.KillFraction(0.34)
		if _, stranded := h.AwaitDrain(30 * time.Second); stranded != 0 {
			b.Fatalf("%d acknowledged tasks stranded", stranded)
		}
		b.StopTimer()
		if err := h.RestartVictims(victims); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// --- Transport cost: in-process vs TCP round trip ---

func benchTransportRTT(b *testing.B, tr transport.Transport, addr string) {
	b.Helper()
	ln, err := tr.Listen(addr, func(_ string, p []byte) ([]byte, error) { return p, nil })
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	payload := make([]byte, 64)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Call(ctx, ln.Addr(), "bench.Echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransportInProc(b *testing.B) {
	benchTransportRTT(b, transport.NewInProc(), "bench")
}

func BenchmarkAblationTransportTCP(b *testing.B) {
	tr := transport.NewTCP()
	defer tr.Close()
	benchTransportRTT(b, tr, "127.0.0.1:0")
}

// --- Scheduling policy costs ---

// BenchmarkAblationPlacementPolicies times the two shipped placers over
// 1000 nodes. Half the nodes hold the function's image, so cache-aware's
// digest search runs on every candidate.
func BenchmarkAblationPlacementPolicies(b *testing.B) {
	img := core.HashImage("registry.local/fn")
	nodes := make([]placement.NodeStatus, 1000)
	for i := range nodes {
		digest := []uint64{uint64(i) * 7919}
		if i%2 == 0 {
			digest = append(digest, img)
			slices.Sort(digest)
		}
		nodes[i] = placement.NodeStatus{
			Node: core.WorkerNode{ID: core.NodeID(i + 1), CPUMilli: 10000, MemoryMB: 65536},
			Util: core.NodeUtilization{CPUMilliUsed: (i * 37) % 9000, MemoryMBUsed: (i * 997) % 60000, CacheDigest: digest},
		}
	}
	req := placement.Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: img}
	for _, tc := range []struct {
		name string
		p    placement.Policy
	}{
		{"kube-default", placement.NewKubeDefault(1)},
		{"cache-aware", placement.NewCacheAware(1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tc.p.Place(nodes, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAutoscalerDecide is one reconcile's worth of decisions:
// 500 functions, each with a full stable window of observations behind it.
func BenchmarkAblationAutoscalerDecide(b *testing.B) {
	const fns = 500
	now := time.Unix(10000, 0)
	scalers := make([]*autoscaler.FunctionAutoscaler, fns)
	for i := range scalers {
		scalers[i] = autoscaler.New(core.DefaultScalingConfig())
		for s := 0; s < 60; s++ {
			scalers[i].Record(now.Add(time.Duration(s)*time.Second), float64(i%7))
		}
	}
	decideAt := now.Add(61 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, a := range scalers {
			a.Desired(decideAt, j%5)
		}
	}
	b.ReportMetric(fns, "functions_per_decision")
}

// --- Workload generation cost ---

func BenchmarkAblationTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := trace.NewAzureLike(trace.Config{Functions: 500, Duration: 5 * time.Minute, Seed: int64(i)})
		if tr.TotalInvocations() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// --- Wire-format cost ---

func BenchmarkAblationFunctionMarshal(b *testing.B) {
	fn := core.Function{
		Name: "resize-image", Image: "registry.example.com/resize:v3",
		Port: 8080, Runtime: "firecracker", Scaling: core.DefaultScalingConfig(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := core.MarshalFunction(&fn)
		if _, err := core.UnmarshalFunction(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Cache-aware warmth: static prewarm pools × cache-aware placement ---

// BenchmarkAblationCacheAwareWarmth smoke-runs the warmth experiment's two
// arms (static prewarm pools under kube-default and cache-aware placement)
// on one trace seed at tiny scale: a compressed Azure-like trace replayed
// against the live in-process cluster. The full-scale run commits five
// seeds' rows to BENCH_warmth.json; this keeps the harness and the
// cache-digest placement path from rotting.
func BenchmarkAblationCacheAwareWarmth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(io.Discard, "warmth", 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Control plane replication: singleton CP vs 3-replica Raft log ---

// BenchmarkAblationCPReplication measures the cost of the replicated
// control plane on the durable write path: registrations flow through a
// singleton CP writing straight to its store vs a 3-replica tier where
// each write is proposed to the Raft log, group-committed at quorum, and
// applied on every replica. Concurrent writers let the leader coalesce
// proposals, so mean_wire_batch (entries shipped per AppendEntries
// round) reports how much of the fan-out cost batching amortizes.
func BenchmarkAblationCPReplication(b *testing.B) {
	for _, replicas := range []int{1, 3} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			tr := transport.NewInProc()
			addrs := make([]string, replicas)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("bcp%d:7000", i)
			}
			cps := make([]*controlplane.ControlPlane, replicas)
			for i := range cps {
				cps[i] = controlplane.New(controlplane.Config{
					Addr:              addrs[i],
					Peers:             addrs,
					Transport:         tr,
					DB:                store.NewMemory(),
					AutoscaleInterval: time.Hour, // idle the control loops
					HeartbeatTimeout:  time.Hour,
				})
				if err := cps[i].Start(); err != nil {
					b.Fatal(err)
				}
				defer cps[i].Stop()
			}
			awaitBenchLeader(b, cps)

			client := cpclient.New(tr, addrs)
			ctx := context.Background()
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					fn := core.Function{
						Name:    fmt.Sprintf("bench-%d", seq.Add(1)),
						Image:   "registry.local/bench",
						Port:    8080,
						Scaling: core.DefaultScalingConfig(),
					}
					if _, err := client.CallWithRetry(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
						b.Errorf("register: %v", err)
						return
					}
				}
			})
			b.StopTimer()

			var rounds, entries uint64
			for _, cp := range cps {
				r, e := cp.ReplStats()
				rounds += r
				entries += e
			}
			if replicas > 1 {
				if entries == 0 || rounds == 0 {
					b.Fatalf("replicated tier shipped no log traffic: rounds=%d entries=%d", rounds, entries)
				}
				b.ReportMetric(float64(entries)/float64(rounds), "mean_wire_batch")
			} else if entries != 0 {
				b.Fatalf("singleton CP shipped replication traffic: entries=%d", entries)
			}
		})
	}
}

func awaitBenchLeader(b *testing.B, cps []*controlplane.ControlPlane) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, cp := range cps {
			if cp.IsLeader() {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatal("no CP leader elected")
}
