package controlplane

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// newRelayVClockHarness builds a control plane on a virtual clock with
// the background loops parked, configured through mutate so each edge
// test can pin DeadWorkerGC / RelayTimeout explicitly.
func newRelayVClockHarness(t *testing.T, mutate func(*Config)) (*ControlPlane, *transport.InProc, *clock.Virtual) {
	t.Helper()
	vclk := clock.NewVirtual(time.Unix(1_000_000, 0))
	tr := transport.NewInProc()
	cfg := Config{
		Addr:              "cp-relay",
		Transport:         tr,
		DB:                store.NewMemory(),
		Clock:             vclk,
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cp := New(cfg)
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	return cp, tr, vclk
}

// relayBatch ships one WorkerHeartbeatBatch from the named relay.
func relayBatch(t *testing.T, tr *transport.InProc, relay string, beats, missing []core.NodeID) {
	t.Helper()
	batch := proto.WorkerHeartbeatBatch{Relay: relay, Missing: missing}
	for _, id := range beats {
		batch.Beats = append(batch.Beats, proto.WorkerHeartbeat{Node: id})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, "cp-relay", proto.MethodWorkerHeartbeatBatch, batch.Marshal()); err != nil {
		t.Fatalf("heartbeat batch from %s: %v", relay, err)
	}
}

// relayRegister ships one RegisterWorkerBatch from the named relay.
func relayRegister(t *testing.T, tr *transport.InProc, relay string, ids ...core.NodeID) {
	t.Helper()
	batch := proto.RegisterWorkerBatch{Relay: relay}
	for _, id := range ids {
		batch.Workers = append(batch.Workers, core.WorkerNode{
			ID: id, Name: fmt.Sprintf("rw%d", id), IP: "10.1.0.1", Port: 9000,
			CPUMilli: 100000, MemoryMB: 1 << 20,
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tr.Call(ctx, "cp-relay", proto.MethodRegisterWorkerBatch, batch.Marshal()); err != nil {
		t.Fatalf("register batch from %s: %v", relay, err)
	}
}

// TestSilentRelayIsNotAMassFailure pins the correlated-mass-timeout
// response: when a relay goes silent mid-period, its members' own
// CP-side stamps decide their fate. Workers that failed over to the
// surviving relay (fresh stamps) stay healthy — the silent relay costs
// one full scan, not a spurious mass failure — and the relay's next
// batch re-admits it with no handshake.
func TestSilentRelayIsNotAMassFailure(t *testing.T) {
	cp, tr, vclk := newRelayVClockHarness(t, nil)
	relayRegister(t, tr, "r1", 1, 2, 3, 4)
	relayRegister(t, tr, "r2", 5, 6, 7, 8)
	relayBatch(t, tr, "r1", []core.NodeID{1, 2, 3, 4}, nil)
	relayBatch(t, tr, "r2", []core.NodeID{5, 6, 7, 8}, nil)
	if got := cp.Metrics().Gauge("relay_count").Value(); got != 2 {
		t.Fatalf("relay_count = %d, want 2", got)
	}

	// r1 dies; its workers fail over to r2, whose next batch carries all
	// eight. r1's last batch ages past RelayTimeout, the workers' stamps
	// stay fresh.
	vclk.Advance(600 * time.Millisecond)
	relayBatch(t, tr, "r2", []core.NodeID{1, 2, 3, 4, 5, 6, 7, 8}, nil)
	vclk.Advance(600 * time.Millisecond)
	cp.HealthSweep()

	if got := cp.WorkerCount(); got != 8 {
		t.Fatalf("silent relay caused failures: WorkerCount = %d, want 8", got)
	}
	if got := cp.Metrics().Counter("relay_failures_detected").Value(); got != 1 {
		t.Errorf("relay_failures_detected = %d, want 1", got)
	}
	if got := cp.Metrics().Gauge("relay_count").Value(); got != 1 {
		t.Errorf("relay_count after silence = %d, want 1", got)
	}

	// r1 revives and re-batches: re-admitted, no second failure counted.
	relayBatch(t, tr, "r1", []core.NodeID{1, 2, 3, 4}, nil)
	if got := cp.Metrics().Gauge("relay_count").Value(); got != 2 {
		t.Errorf("relay_count after revival = %d, want 2", got)
	}
	if got := cp.Metrics().Counter("relay_failures_detected").Value(); got != 1 {
		t.Errorf("relay revival recounted as failure: %d, want 1", got)
	}
}

// TestSilentRelayMassTimeoutStillDetected is the other half of the
// silent-relay contract: members that did NOT fail over (their stamps
// went stale with the relay) are failed by the triggered full scan — a
// dead rack behind a dead relay is still detected at timeout.
func TestSilentRelayMassTimeoutStillDetected(t *testing.T) {
	cp, tr, vclk := newRelayVClockHarness(t, nil)
	relayRegister(t, tr, "r1", 1, 2)
	relayRegister(t, tr, "r2", 3, 4)
	relayBatch(t, tr, "r1", []core.NodeID{1, 2}, nil)
	relayBatch(t, tr, "r2", []core.NodeID{3, 4}, nil)

	// r1 and its whole rack die at once; r2 keeps batching its own.
	vclk.Advance(600 * time.Millisecond)
	relayBatch(t, tr, "r2", []core.NodeID{3, 4}, nil)
	vclk.Advance(600 * time.Millisecond)
	relayBatch(t, tr, "r2", []core.NodeID{3, 4}, nil)
	cp.HealthSweep()

	if got := cp.WorkerCount(); got != 2 {
		t.Fatalf("WorkerCount = %d, want 2 (r1's rack failed, r2's alive)", got)
	}
}

// TestTwoRelaysLatestStampWins pins the double-reporting edge: a worker
// that appears in two relays' batches (mid-failover overlap) keeps the
// latest CP-side stamp, is counted once in fleet_size, and survives a
// sweep that would have failed it under the older stamp.
func TestTwoRelaysLatestStampWins(t *testing.T) {
	cp, tr, vclk := newRelayVClockHarness(t, nil)
	relayRegister(t, tr, "r1", 1)
	relayRegister(t, tr, "r2", 1) // same worker announced via both relays
	if got := cp.Metrics().Gauge("fleet_size").Value(); got != 1 {
		t.Fatalf("fleet_size after double registration = %d, want 1", got)
	}

	relayBatch(t, tr, "r1", []core.NodeID{1}, nil)
	// 800 ms later the worker's beats flow through r2 (r1 still batches,
	// but empty — it no longer carries this worker).
	vclk.Advance(800 * time.Millisecond)
	relayBatch(t, tr, "r2", []core.NodeID{1}, nil)
	relayBatch(t, tr, "r1", nil, nil)
	// 400 ms later the r1 stamp would be 1.2 s old (past timeout); the
	// r2 stamp is 400 ms old. Latest wins: still healthy.
	vclk.Advance(400 * time.Millisecond)
	cp.HealthSweep()

	if got := cp.WorkerCount(); got != 1 {
		t.Fatalf("worker failed despite fresh stamp via second relay; WorkerCount = %d, want 1", got)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); got != 1 {
		t.Errorf("fleet_size = %d, want 1 (no double count)", got)
	}
}

// TestMissingSuspectFailsOnFastPath pins the fast sweep's detection
// path: with relays current, a relay-reported missing worker is failed
// by a fast O(relays+suspects) pass once its own stamp ages past
// HeartbeatTimeout — and not a sweep earlier, however often the relay
// repeats the hint.
func TestMissingSuspectFailsOnFastPath(t *testing.T) {
	cp, tr, vclk := newRelayVClockHarness(t, nil)
	relayRegister(t, tr, "r1", 1, 2)
	relayBatch(t, tr, "r1", []core.NodeID{1, 2}, nil)

	// Worker 1 goes quiet; the relay notices and reports it missing
	// while still vouching for worker 2.
	vclk.Advance(500 * time.Millisecond)
	relayBatch(t, tr, "r1", []core.NodeID{2}, []core.NodeID{1})
	cp.HealthSweep() // age 500 ms < timeout: suspected, requeued, alive
	if got := cp.WorkerCount(); got != 2 {
		t.Fatalf("suspect failed before its stamp timed out; WorkerCount = %d, want 2", got)
	}

	vclk.Advance(600 * time.Millisecond)
	relayBatch(t, tr, "r1", []core.NodeID{2}, []core.NodeID{1})
	cp.HealthSweep() // age 1.1 s > timeout: failed on the fast path
	if got := cp.WorkerCount(); got != 1 {
		t.Fatalf("fast path missed the timed-out suspect; WorkerCount = %d, want 1", got)
	}
	if seq := cp.sweepSeq.Load(); seq%fullScanEvery == 0 {
		t.Fatalf("the sweep that failed the suspect (seq %d) was a full scan, not a fast pass", seq)
	}
}

// TestDeadWorkerGC pins the tombstone lifecycle: a crash-failed worker's
// record lingers for DeadWorkerGC (a late heartbeat inside the window
// revives it), then the entry and its persisted record are collected,
// after which even a heartbeat under the old ID is ignored — the node
// must re-register.
func TestDeadWorkerGC(t *testing.T) {
	const gc = 3 * time.Second
	cp, tr, vclk := newRelayVClockHarness(t, func(cfg *Config) {
		cfg.DeadWorkerGC = gc
	})
	registerWorkerAt(t, tr, "cp-relay", 1, "10.2.0.1")
	hb := func() {
		b := proto.WorkerHeartbeat{Node: 1}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := tr.Call(ctx, "cp-relay", proto.MethodWorkerHeartbeat, b.Marshal()); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
	}
	hb()

	// Fail by timeout; the record lingers.
	vclk.Advance(1100 * time.Millisecond)
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 0 {
		t.Fatalf("WorkerCount = %d, want 0 after timeout", got)
	}
	if got := len(cp.cfg.DB.HGetAll(hashWorkers)); got != 1 {
		t.Fatalf("persisted record collected too early (records = %d)", got)
	}

	// A late heartbeat inside the GC window revives the worker.
	vclk.Advance(time.Second)
	hb()
	cp.HealthSweep()
	if got := cp.WorkerCount(); got != 1 {
		t.Fatalf("late heartbeat did not revive worker; WorkerCount = %d", got)
	}

	// Fail again and let the failure age past DeadWorkerGC: entry and
	// record are both collected.
	vclk.Advance(1100 * time.Millisecond)
	cp.HealthSweep()
	vclk.Advance(gc + 100*time.Millisecond)
	cp.HealthSweep()
	if got := cp.Metrics().Counter("dead_worker_gc").Value(); got != 1 {
		t.Fatalf("dead_worker_gc = %d, want 1", got)
	}
	if got := len(cp.cfg.DB.HGetAll(hashWorkers)); got != 0 {
		t.Errorf("persisted record survived GC (records = %d)", got)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); got != 0 {
		t.Errorf("fleet_size = %d, want 0 after GC", got)
	}

	// Post-GC heartbeats under the collected ID are ignored.
	hb()
	if got := cp.WorkerCount(); got != 0 {
		t.Errorf("heartbeat resurrected a collected worker; WorkerCount = %d, want 0", got)
	}
}
