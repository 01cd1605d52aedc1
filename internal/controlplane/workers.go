package controlplane

import (
	"sync"
	"time"

	"dirigent/internal/core"
)

// workerShards is the number of locks striping the worker registry. The
// paper's fleet experiment (§5.2.3) runs the control plane against 5000
// worker nodes; 32 stripes keep registration storms and heartbeat floods
// from colliding while the array stays cheap to sweep in the health
// monitor.
const workerShards = 32

// workerShard is one stripe of the worker registry: a slice of the
// worker map guarded by its own RWMutex. Registrations, heartbeats and
// health checks for workers in different shards proceed in parallel;
// per-worker mutable state (utilization, liveness) stays behind each
// workerState's own mutex, so even same-shard heartbeats only contend
// on the brief map lookup.
type workerShard struct {
	mu      sync.RWMutex
	workers map[core.NodeID]*workerState
}

func newWorkerShards() []*workerShard {
	shards := make([]*workerShard, workerShards)
	for i := range shards {
		shards[i] = &workerShard{workers: make(map[core.NodeID]*workerState)}
	}
	return shards
}

// workerShardFor maps a node ID to its shard. Node IDs are small dense
// integers, so a plain modulus spreads a fleet evenly.
func (cp *ControlPlane) workerShardFor(id core.NodeID) *workerShard {
	return cp.wshards[uint32(id)%workerShards]
}

// lockWorkerShard acquires ws.mu for writing, recording contended
// acquisitions in reg_lock_wait_ms. The uncontended fast path is a
// single TryLock so the telemetry costs nothing when striping is doing
// its job (mirrors lockShard on the function-state side).
func (cp *ControlPlane) lockWorkerShard(ws *workerShard) {
	if ws.mu.TryLock() {
		return
	}
	start := time.Now()
	ws.mu.Lock()
	cp.mRegContended.Inc()
	cp.mRegWait.Observe(time.Since(start))
}

// rlockWorkerShard acquires ws.mu for reading with the same contention
// telemetry. Readers only wait when a registration or recovery holds
// the write lock.
func (cp *ControlPlane) rlockWorkerShard(ws *workerShard) {
	if ws.mu.TryRLock() {
		return
	}
	start := time.Now()
	ws.mu.RLock()
	cp.mRegContended.Inc()
	cp.mRegWait.Observe(time.Since(start))
}

// getWorker returns the registry entry for a node, or nil. It takes only
// the owning shard's read lock, so a heartbeat never serializes against
// registrations or lookups on other shards.
func (cp *ControlPlane) getWorker(id core.NodeID) *workerState {
	ws := cp.workerShardFor(id)
	cp.rlockWorkerShard(ws)
	w := ws.workers[id]
	ws.mu.RUnlock()
	return w
}

// putWorker inserts or replaces a registry entry, reporting whether the
// node ID was already registered (re-registration of a failed or moved
// worker replaces the entry in place).
func (cp *ControlPlane) putWorker(w *workerState) (existed bool) {
	ws := cp.workerShardFor(w.node.ID)
	cp.lockWorkerShard(ws)
	prev, existed := ws.workers[w.node.ID]
	ws.workers[w.node.ID] = w
	ws.mu.Unlock()
	if existed {
		prev.retire()
	}
	if !existed {
		cp.workerCount.Add(1)
		// Re-read for the gauge so racing updates can't publish a stale
		// count over a newer one; HealthSweep refreshes it periodically
		// in case two Sets still interleave badly.
		cp.gFleetSize.Set(cp.workerCount.Load())
	}
	return existed
}

// removeWorkerIfUnhealthy deletes a failed worker's registry entry
// (explicit deregistration). A concurrent re-registration wins the
// race: a fresh healthy entry under the same ID is left in place.
func (cp *ControlPlane) removeWorkerIfUnhealthy(id core.NodeID) {
	ws := cp.workerShardFor(id)
	cp.lockWorkerShard(ws)
	w := ws.workers[id]
	removed := false
	if w != nil {
		w.mu.Lock()
		if !w.healthy {
			delete(ws.workers, id)
			w.out.retire()
			removed = true
		}
		w.mu.Unlock()
	}
	ws.mu.Unlock()
	if removed {
		cp.workerCount.Add(-1)
		cp.gFleetSize.Set(cp.workerCount.Load())
	}
}

// forEachWorkerShard visits every worker shard in turn with its read
// lock held. Sweeps over the whole fleet (health checks, placement
// candidates, status) block at most 1/workerShards of the registry at a
// time instead of stalling every registration behind one global lock.
func (cp *ControlPlane) forEachWorkerShard(fn func(ws *workerShard)) {
	for _, ws := range cp.wshards {
		cp.rlockWorkerShard(ws)
		fn(ws)
		ws.mu.RUnlock()
	}
}

// workerSnapshot copies the current worker set, shard by shard. Callers
// operate on the snapshot without holding any registry lock — the
// recovery merge and failure drains work this way so a slow worker RPC
// never blocks the registry.
func (cp *ControlPlane) workerSnapshot() []*workerState {
	var out []*workerState
	cp.forEachWorkerShard(func(ws *workerShard) {
		for _, w := range ws.workers {
			out = append(out, w)
		}
	})
	return out
}

// rebuildWorkers replaces the whole registry with the entries load()
// returns, holding every shard's write lock across the rebuild — the
// one operation that still freezes the registry, and it happens only on
// leadership recovery. load runs inside the locks so the swap is atomic
// with respect to registrations: a registration persists its record
// before inserting, so it either inserted before the locks were taken
// (and load reads its record back) or blocks until the rebuild finishes
// (and re-inserts afterwards) — never silently dropped.
func (cp *ControlPlane) rebuildWorkers(load func() []*workerState) []*workerState {
	var prev []*workerState
	for _, ws := range cp.wshards {
		cp.lockWorkerShard(ws)
		for _, w := range ws.workers {
			prev = append(prev, w)
		}
		ws.workers = make(map[core.NodeID]*workerState)
	}
	workers := load()
	for _, w := range workers {
		cp.wshards[uint32(w.node.ID)%workerShards].workers[w.node.ID] = w
	}
	cp.workerCount.Store(int64(len(workers)))
	cp.gFleetSize.Set(int64(len(workers)))
	for _, ws := range cp.wshards {
		ws.mu.Unlock()
	}
	for _, w := range prev {
		w.retire()
	}
	return workers
}

// retire stops w's sender once it has drained: w has left the registry.
func (w *workerState) retire() {
	w.mu.Lock()
	w.out.retire()
	w.mu.Unlock()
}

// HealthSweep runs one health-monitor pass: every worker whose last
// heartbeat is older than HeartbeatTimeout is failed and its sandboxes
// drained. The scan iterates per-shard snapshots — only one shard's read
// lock plus each worker's own mutex is held at a time — and the failure
// drains run after the scan with no registry lock held, so a mass
// failure never stalls registrations or heartbeats on healthy shards.
// Exported so tests and the fleet harness can drive the health monitor
// deterministically instead of waiting for ticker periods.
//
// Each sweep also garbage-collects crash-failed entries whose failure is
// older than DeadWorkerGC: the registry entry and the persisted record
// are both removed (counted by dead_worker_gc), so a fleet that churns
// nodes doesn't accrete tombstones forever. A late heartbeat before
// collection still revives the worker. Each sweep also retires every
// worker sender (senders.go) idle since the previous sweep.
func (cp *ControlPlane) HealthSweep() {
	start := cp.clk.Now()
	var failed, collect []core.NodeID
	cp.forEachWorkerShard(func(ws *workerShard) {
		for id, w := range ws.workers {
			w.mu.Lock()
			w.out.sweep(len(w.creates)+len(w.kills) == 0)
			switch {
			case w.healthy && start.Sub(w.lastHB) > cp.cfg.HeartbeatTimeout:
				failed = append(failed, id)
			case !w.healthy && cp.cfg.DeadWorkerGC > 0 && !w.failedAt.IsZero() &&
				start.Sub(w.failedAt) > cp.cfg.DeadWorkerGC:
				collect = append(collect, id)
			}
			w.mu.Unlock()
		}
	})
	for _, id := range failed {
		cp.failWorker(id)
	}
	for _, id := range collect {
		cp.gcDeadWorker(id)
	}
	// Data planes share the sweep: replicas whose heartbeats stopped are
	// pruned from the broadcast fan-out set (see dataplanes.go).
	cp.sweepDataPlanes(start)
	cp.gFleetSize.Set(cp.workerCount.Load())
	cp.mHealthSweep.Observe(cp.clk.Since(start))
}

// gcDeadWorker removes a crash-failed worker's registry entry and its
// persisted record once its failure has aged past DeadWorkerGC. The
// health state is re-checked under the locks so a revival (late
// heartbeat: healthy, fresh failedAt reset) or a re-registration racing
// the collection wins and the entry stays.
func (cp *ControlPlane) gcDeadWorker(id core.NodeID) {
	ws := cp.workerShardFor(id)
	cp.lockWorkerShard(ws)
	w := ws.workers[id]
	removed := false
	var name string
	if w != nil {
		w.mu.Lock()
		if !w.healthy && !w.failedAt.IsZero() &&
			cp.clk.Now().Sub(w.failedAt) > cp.cfg.DeadWorkerGC {
			delete(ws.workers, id)
			w.out.retire()
			removed = true
			name = w.node.Name
		}
		w.mu.Unlock()
	}
	ws.mu.Unlock()
	if !removed {
		return
	}
	_ = cp.cfg.DB.HDel(hashWorkers, name)
	cp.workerCount.Add(-1)
	cp.gFleetSize.Set(cp.workerCount.Load())
	cp.cDeadWorkerGC.Inc()
}
