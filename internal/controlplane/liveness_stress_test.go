package controlplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// TestConcurrentLivenessIngest hammers the worker registry under -race at
// fleet scale: heartbeat floods (unknown node IDs mixed in) race
// continuous health sweeps, and registration storms race recovery
// rebuilds. It locks in that heartbeats, sweeps, registrations and
// rebuildWorkers never rely on a global lock for exclusion, and that a
// registration racing a rebuild is never silently dropped: the registry
// and the persisted records agree at the end.
func TestConcurrentLivenessIngest(t *testing.T) {
	fleetSize := 5000
	if testing.Short() {
		fleetSize = 1024
	}
	const (
		floods = 8
		iters  = 10
	)

	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:      "cpl0",
		Transport: tr,
		DB:        db,
		// Sweeps are driven explicitly below; park the tickers. The huge
		// timeout keeps the racing sweeps from failing live workers.
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	call := func(method string, payload []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Errors are irrelevant here; the test asserts on final state
		// and on the race detector, not per-call success.
		_, _ = tr.Call(ctx, "cpl0", method, payload)
	}
	register := func(id int) {
		req := proto.RegisterWorkerRequest{Worker: core.WorkerNode{
			ID: core.NodeID(id), Name: fmt.Sprintf("sw%d", id),
			IP: fmt.Sprintf("10.3.%d.%d", id/256, id%256), Port: 9000,
			CPUMilli: 1 << 20, MemoryMB: 1 << 20,
		}}
		call(proto.MethodRegisterWorker, req.Marshal())
	}
	for id := 1; id <= fleetSize; id++ {
		register(id)
	}

	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	// Heartbeat floods: each goroutine beats for its slice of the fleet,
	// plus an unknown ID the handler must ignore.
	per := fleetSize / floods
	for g := 0; g < floods; g++ {
		lo := g*per + 1
		spawn(func() {
			for it := 0; it < iters; it++ {
				for id := lo; id < lo+per; id++ {
					hb := proto.WorkerHeartbeat{Node: core.NodeID(id)}
					call(proto.MethodWorkerHeartbeat, hb.Marshal())
				}
				hb := proto.WorkerHeartbeat{Node: core.NodeID(fleetSize + 500)}
				call(proto.MethodWorkerHeartbeat, hb.Marshal())
			}
		})
	}

	// Health sweeps race the floods.
	spawn(func() {
		for it := 0; it < 4*iters; it++ {
			cp.HealthSweep()
		}
	})

	// Registration storms race recovery rebuilds: re-registration of
	// existing workers plus a rotating band of fresh ones.
	spawn(func() {
		for i := 0; i < 20*64; i++ {
			register(1 + i%(fleetSize+128))
		}
	})
	spawn(func() {
		for it := 0; it < 4; it++ {
			cp.recover()
		}
	})

	wg.Wait()
	// Settle: one final rebuild from the store, then verify the registry
	// and the persisted records agree and every worker is healthy.
	cp.recover()
	cp.HealthSweep()
	persisted := len(db.HGetAll(hashWorkers))
	if got := cp.WorkerCount(); got != persisted {
		t.Fatalf("registry/store diverged: WorkerCount = %d, persisted = %d", got, persisted)
	}
	if persisted < fleetSize {
		t.Fatalf("persisted %d workers, want >= %d", persisted, fleetSize)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); int(got) != persisted {
		t.Errorf("fleet_size gauge = %d, want %d", got, persisted)
	}
}
