package controlplane

import (
	"context"
	"fmt"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/placement"
	"dirigent/internal/proto"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// maxBatch caps how many creations, teardowns or endpoint updates one
// RPC carries. Large enough that realistic bursts (the paper drives ~2500
// cold starts/s against ~100 workers) fit in one RPC per worker per
// sweep; small enough to bound message size.
const maxBatch = 256

// autoscaleLoop is the asynchronous loop that reconciles the number of
// sandboxes per function with the autoscaler's desired scale, issuing
// sandbox creations and teardowns to worker nodes (paper §3.3, §4).
func (cp *ControlPlane) autoscaleLoop() {
	defer cp.wg.Done()
	ticker := time.NewTicker(cp.cfg.AutoscaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-cp.stopCh:
			return
		case <-ticker.C:
			if cp.IsLeader() {
				cp.Reconcile()
			}
		}
	}
}

// Reconcile runs one autoscaling pass. It is exported so that tests and
// the experiment harness can drive scaling deterministically instead of
// waiting for ticker periods.
//
// The sweep iterates shard by shard, holding only one shard's lock while
// it takes that shard's scaling decisions (scaleStep) for the functions in
// its active list, and takes out of the list those the decision leaves
// idle (quiesce): an idle function costs a tick nothing. Sandbox transitions
// and metric reports for functions in other shards proceed concurrently
// with the pass instead of stalling behind a global lock for the whole
// sweep. The decisions are then carried out off-lock by applyScale.
func (cp *ControlPlane) Reconcile() {
	now := cp.clk.Now()
	downscale := true
	if at := cp.recoveredAt.Load(); at != nil {
		downscale = now.Sub(*at) >= cp.cfg.NoDownscaleWindow
	}
	var actions []scaleAction
	cp.forEachShard(func(sh *functionShard) {
		kept := sh.active[:0]
		for _, fs := range sh.active {
			// A new tick: the report handler may try this function again.
			fs.triggered = false
			sh.steps++
			if a, ok := fs.scaleStep(now, downscale); ok {
				actions = append(actions, a)
			}
			if !fs.quiesce(now) {
				kept = append(kept, fs)
			}
		}
		clear(sh.active[len(kept):])
		sh.active = kept
	})
	cp.applyScale(actions, now)
	cp.pushPrewarmTargets(now)
}

// scaleAction is one function's scaling decision, taken under its shard
// lock by scaleStep and carried out off-lock by applyScale.
type scaleAction struct {
	// fs is the state the decision was taken on and holds the create
	// reservations; fn is its spec as of the decision.
	fs     *functionState
	fn     core.Function
	create int
	kills  []*sandboxState
}

// scaleStep is the per-function autoscaling decision, shared by the
// periodic sweep and the scaling-metric handler's scale-from-zero trigger.
// Callers hold the function's shard lock. It compares the scaler's desired
// scale with what exists or is on its way and either reserves creations or
// unlinks victims. The reservation (fs.placing, released by placeSandbox)
// is what keeps the two deciders from both scaling up from the same
// current count: creations decided here are not sandboxes in phaseCreating
// until applyScale has placed them, off-lock.
//
// Each decision first records the function's summed demand as one scaler
// sample. Data planes report a function only when its demand changes, so
// this sample is what makes an unreported function read as unchanged
// demand rather than missing samples; the report handler adds one per
// reported change, which is what catches demand that comes and goes
// between two decisions (an autoscale interval of seconds is far coarser
// than the report period).
func (fs *functionState) scaleStep(now time.Time, downscale bool) (scaleAction, bool) {
	ready, creating := fs.counts()
	current := ready + creating + fs.placing
	fs.scaler.Record(now, float64(fs.totalDemand()))
	desired := fs.scaler.Desired(now, current)
	switch {
	case desired > current:
		fs.placing += desired - current
		return scaleAction{fs: fs, fn: fs.fn, create: desired - current}, true
	case desired < current && downscale:
		// Tear down surplus sandboxes. Creations cannot be cancelled
		// mid-flight, so only ready sandboxes are victims.
		surplus := current - desired
		var victims []*sandboxState
		for _, sb := range fs.sandboxes {
			if len(victims) == surplus {
				break
			}
			if sb.phase == phaseReady {
				victims = append(victims, sb)
			}
		}
		for _, sb := range victims {
			delete(fs.sandboxes, sb.id)
		}
		return scaleAction{fs: fs, fn: fs.fn, kills: victims}, len(victims) > 0
	}
	return scaleAction{}, false
}

// applyScale carries out a batch of scaling decisions — the tail shared
// by the sweep and the report handler. Each placement is queued on its
// worker's sender, which coalesces whatever its worker is owed into one
// CreateSandboxBatch call, each kill likewise, and every function whose
// endpoint set changed is owed to every data plane's sender. decidedAt is
// when the deciding pass began.
func (cp *ControlPlane) applyScale(actions []scaleAction, decidedAt time.Time) {
	if len(actions) == 0 {
		return
	}
	var kills []*sandboxState
	var drained []string
	for _, a := range actions {
		if a.create > 0 && cp.pred != nil {
			// Every creation staged is cold-start demand for the
			// function's image — a signal that stays live even when worker
			// pre-warm pools absorb the actual boot cost, because the
			// reconciler still places the replacement sandbox.
			cp.pred.Observe(decidedAt, a.fn.Image, a.create)
		}
		for i := 0; i < a.create; i++ {
			cp.placeSandbox(a.fs, a.fn, decidedAt)
		}
		if len(a.kills) > 0 {
			kills = append(kills, a.kills...)
			drained = append(drained, a.fn.Name)
		}
	}
	cp.dispatchKills(kills)
	cp.broadcastEndpoints(drained...)
}

// placeSandbox places one of the creations scaleStep reserved on fs and
// queues it on its worker's sender. This is the latency-critical
// cold-start path: note the absence of any persistent state update (design
// principle 2) and of any global lock — the path reads worker shards one
// at a time, takes one worker's mutex, and one function shard, so cold
// starts for unrelated functions proceed in parallel with registrations
// and heartbeats on other shards. When placement fails or the function
// vanished nothing is queued; either way the reservation is released.
func (cp *ControlPlane) placeSandbox(fs *functionState, fn core.Function, decidedAt time.Time) {
	w, nodeID := cp.chargeWorker(fn)
	// Only the state the decision was taken on holds the reservation: a
	// function deregistered (or recovered into a fresh state) meanwhile
	// gets nothing placed on the old decision's account.
	var id core.SandboxID
	placed := false
	cp.withFunction(fn.Name, func(live *functionState) {
		if live != fs {
			return
		}
		fs.placing--
		if w == nil {
			return
		}
		placed = true
		id = core.SandboxID(cp.nextSandboxID.Add(1))
		fs.sandboxes[id] = &sandboxState{
			id:         id,
			function:   fn.Name,
			node:       nodeID,
			workerAddr: w.addr,
			phase:      phaseCreating,
			createdAt:  cp.clk.Now(),
		}
	})
	if w == nil {
		return
	}
	if !placed {
		// Return the optimistic utilization chargeWorker took.
		w.mu.Lock()
		w.util.CPUMilliUsed -= fn.Scaling.CPUMilli
		w.util.MemoryMBUsed -= fn.Scaling.MemoryMB
		w.mu.Unlock()
		return
	}
	cp.cCreationsRequested.Inc()
	cp.enqueueCreate(w, queuedCreate{req: proto.CreateSandboxRequest{SandboxID: id, Function: fn}, decidedAt: decidedAt})
}

// chargeWorker picks a worker for one sandbox of fn and optimistically
// accounts the sandbox on it, so that the placer sees the pending
// allocation before the next heartbeat refresh. It returns nil when no
// healthy worker has room.
func (cp *ControlPlane) chargeWorker(fn core.Function) (*workerState, core.NodeID) {
	candidates := make([]placement.NodeStatus, 0, cp.workerCount.Load())
	cp.forEachWorkerShard(func(ws *workerShard) {
		for _, w := range ws.workers {
			w.mu.Lock()
			if w.healthy {
				candidates = append(candidates, placement.NodeStatus{Node: w.node, Util: w.util})
			}
			w.mu.Unlock()
		}
	})
	req := placement.Requirements{
		CPUMilli: fn.Scaling.CPUMilli,
		MemoryMB: fn.Scaling.MemoryMB,
		// Cache-aware policies match this against the digests workers
		// report in heartbeats; locality-blind policies ignore it.
		ImageHash: core.HashImage(fn.Image),
	}
	nodeID, err := cp.cfg.Placer.Place(candidates, req)
	if err != nil {
		cp.cPlacementFailures.Inc()
		return nil, 0
	}
	w := cp.getWorker(nodeID)
	if w == nil {
		return nil, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.healthy {
		return nil, 0
	}
	w.util.CPUMilliUsed += fn.Scaling.CPUMilli
	w.util.MemoryMBUsed += fn.Scaling.MemoryMB
	return w, nodeID
}

// healthLoop watches worker heartbeats and fails workers that go silent
// (paper §3.4.1: "Once the control plane detects no heartbeats, it
// notifies data plane components not to route requests to sandboxes on the
// affected worker node" and re-runs autoscaling). Each pass is one
// HealthSweep over per-shard registry snapshots.
func (cp *ControlPlane) healthLoop() {
	defer cp.wg.Done()
	interval := cp.cfg.HeartbeatTimeout / 4
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-cp.stopCh:
			return
		case <-ticker.C:
			if cp.IsLeader() {
				cp.HealthSweep()
			}
		}
	}
}

// failWorker removes a worker from scheduling and drains its sandboxes
// from the cluster state, then reconciles so the autoscaler re-creates
// capacity on healthy nodes. Draining sweeps the function shards one at
// a time and holds no registry lock, so a mass-failure drain never
// stalls registrations or heartbeats for surviving workers.
func (cp *ControlPlane) failWorker(id core.NodeID) {
	w := cp.getWorker(id)
	if w == nil {
		return
	}
	w.mu.Lock()
	if !w.healthy {
		w.mu.Unlock()
		return
	}
	w.healthy = false
	// Start the dead-entry GC clock: the entry lingers for DeadWorkerGC
	// so a late heartbeat can revive the node, then gets collected.
	w.failedAt = cp.clk.Now()
	w.mu.Unlock()
	var touched []string
	cp.forEachShard(func(sh *functionShard) {
		for _, fs := range sh.active { // an idle function has no sandboxes
			drained := false
			for sid, sb := range fs.sandboxes {
				if sb.node == id {
					delete(fs.sandboxes, sid)
					drained = true
				}
			}
			if drained {
				touched = append(touched, fs.fn.Name)
			}
		}
	})
	cp.metrics.Counter("worker_failures_detected").Inc()
	cp.broadcastEndpoints(touched...)
	// Re-run autoscaling immediately so replacement sandboxes spin up
	// elsewhere without waiting a full tick.
	cp.Reconcile()
}

// liveDataPlanes returns the live data plane replicas — the function
// metadata fan-out set. Replicas the health monitor has failed are
// excluded, so a registration never burns an RPC timeout per dead
// replica; they rejoin (with a cache re-warm) when their heartbeats
// resume.
func (cp *ControlPlane) liveDataPlanes() []*dataPlaneState {
	states := cp.snapshotDataPlanes()
	live := states[:0]
	for _, st := range states {
		st.mu.Lock()
		if st.healthy {
			live = append(live, st)
		}
		st.mu.Unlock()
	}
	return live
}

func dataPlaneAddr(p *core.DataPlane) string {
	return fmt.Sprintf("%s:%d", p.IP, p.Port)
}

// sendFunctionMeta makes one function-metadata call (a delta or a sync)
// with the same payload to each replica, one after another so that every
// replica sees the calls in the order fnMu admits them. A replica whose
// call fails is marked for a sync on its next heartbeat; one a sync
// reached is unmarked. It returns the replicas the call reached, in
// states' storage. Callers hold fnMu.
func (cp *ControlPlane) sendFunctionMeta(states []*dataPlaneState, method string, payload []byte) []*dataPlaneState {
	sync := method == proto.MethodSyncFunctions
	reached := states[:0]
	for _, st := range states {
		ctx := transport.NewDeadline(context.Background(), 2*time.Second)
		_, err := cp.cfg.Transport.Call(ctx, st.addr, method, payload)
		ctx.Stop()
		if err != nil || sync {
			st.mu.Lock()
			st.needsSync = err != nil
			st.mu.Unlock()
		}
		if err == nil {
			reached = append(reached, st)
		}
	}
	return reached
}

// syncFunctions replaces each replica's function set with the full
// registry, snapshotted and marshaled once for all of them. The snapshot
// is taken under fnMu, so no delta is half-applied to it. With owe set,
// each replica the sync reaches is owed every function's endpoints too,
// as one whose caches may have missed any number of updates is.
func (cp *ControlPlane) syncFunctions(states []*dataPlaneState, owe bool) {
	if len(states) == 0 {
		return
	}
	cp.fnMu.Lock()
	defer cp.fnMu.Unlock()
	list := proto.FunctionList{Functions: cp.snapshotFunctions()}
	reached := cp.sendFunctionMeta(states, proto.MethodSyncFunctions, list.Marshal())
	if !owe || len(reached) == 0 {
		return
	}
	names := make([]string, len(list.Functions))
	for i := range list.Functions {
		names[i] = list.Functions[i].Name
	}
	for _, st := range reached {
		cp.oweEndpoints(st, names)
	}
}

// FunctionScale reports (ready, creating) sandbox counts for a function,
// used by tests and the experiment harness.
func (cp *ControlPlane) FunctionScale(name string) (ready, creating int) {
	cp.withFunction(name, func(fs *functionState) {
		ready, creating = fs.counts()
	})
	return ready, creating
}

// WorkerCount reports the number of healthy workers, scanning per-shard
// snapshots like the health monitor.
func (cp *ControlPlane) WorkerCount() int {
	n := 0
	cp.forEachWorkerShard(func(ws *workerShard) {
		for _, w := range ws.workers {
			w.mu.Lock()
			if w.healthy {
				n++
			}
			w.mu.Unlock()
		}
	})
	return n
}

// Metrics exposes the control plane's metrics registry.
func (cp *ControlPlane) Metrics() *telemetry.Registry { return cp.metrics }
