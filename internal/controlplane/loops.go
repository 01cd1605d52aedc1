package controlplane

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/placement"
	"dirigent/internal/proto"
	"dirigent/internal/telemetry"
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
// it takes that shard's scaling decisions (scaleStep); sandbox transitions
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
		for _, fs := range sh.fns {
			// A new tick: the report handler may try this function again.
			fs.triggered = false
			if a, ok := fs.scaleStep(now, downscale); ok {
				actions = append(actions, a)
			}
		}
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
func (fs *functionState) scaleStep(now time.Time, downscale bool) (scaleAction, bool) {
	ready, creating := fs.counts()
	current := ready + creating + fs.placing
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
// by the sweep and the report handler. Scale-up is pipelined: every
// placement is staged first, then fanned out as one CreateSandboxBatch RPC
// per worker (concurrently across workers), and every function whose
// endpoint set changed shares one coalesced UpdateEndpointsBatch RPC per
// data plane. decidedAt is when the deciding pass began.
func (cp *ControlPlane) applyScale(actions []scaleAction, decidedAt time.Time) {
	if len(actions) == 0 {
		return
	}
	var staged []*stagedCreate
	var kills []*sandboxState
	var drained map[string]bool // allocated by the first scale-down
	for _, a := range actions {
		if a.create > 0 && cp.pred != nil {
			// Every creation staged is cold-start demand for the
			// function's image — a signal that stays live even when worker
			// pre-warm pools absorb the actual boot cost, because the
			// reconciler still places the replacement sandbox.
			cp.pred.Observe(decidedAt, a.fn.Image, a.create)
		}
		for i := 0; i < a.create; i++ {
			if sc := cp.placeSandbox(a.fs, a.fn); sc != nil {
				staged = append(staged, sc)
			}
		}
		if len(a.kills) > 0 {
			kills = append(kills, a.kills...)
			if drained == nil {
				drained = make(map[string]bool)
			}
			drained[a.fn.Name] = true
		}
	}
	cp.dispatchCreates(staged, decidedAt)
	cp.dispatchKills(kills)
	cp.broadcastEndpointsBatch(sortedKeys(drained))
}

// stagedCreate is one placement decision awaiting RPC dispatch: the
// sandbox already exists in phaseCreating state and its resources are
// optimistically charged to the worker.
type stagedCreate struct {
	id   core.SandboxID
	fn   core.Function
	addr string
}

// placeSandbox places one of the creations scaleStep reserved on fs and
// stages it for dispatch. This is the latency-critical cold-start path:
// note the absence of any persistent state update (design principle 2) and
// of any global lock — the path reads worker shards one at a time, takes
// one worker's mutex, and one function shard, so cold starts for unrelated
// functions proceed in parallel with registrations and heartbeats on other
// shards. It returns nil when placement fails or the function vanished;
// either way the reservation is released.
func (cp *ControlPlane) placeSandbox(fs *functionState, fn core.Function) *stagedCreate {
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
		return nil
	}
	if !placed {
		// Return the optimistic utilization chargeWorker took.
		w.mu.Lock()
		w.util.CPUMilliUsed -= fn.Scaling.CPUMilli
		w.util.MemoryMBUsed -= fn.Scaling.MemoryMB
		w.mu.Unlock()
		return nil
	}
	cp.cCreationsRequested.Inc()
	return &stagedCreate{id: id, fn: fn, addr: w.addr}
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

// dispatchCreates fans staged creations out to their workers: one
// CreateSandboxBatch RPC per worker (chunked at maxBatch), all workers in
// parallel. sweepStart is when the deciding pass (the autoscale sweep or
// the report handler) began; the gap to RPC dispatch is the control
// plane's scheduling latency contribution (cold_start_sched_ms).
func (cp *ControlPlane) dispatchCreates(staged []*stagedCreate, sweepStart time.Time) {
	if len(staged) == 0 {
		return
	}
	byWorker := make(map[string][]*stagedCreate)
	for _, sc := range staged {
		byWorker[sc.addr] = append(byWorker[sc.addr], sc)
	}
	for addr, batch := range byWorker {
		for len(batch) > 0 {
			chunk := batch
			if len(chunk) > maxBatch {
				chunk = chunk[:maxBatch]
			}
			batch = batch[len(chunk):]
			cp.sendCreateBatch(addr, chunk, sweepStart)
		}
	}
}

// sendCreateBatch issues one batched create RPC asynchronously, rolling
// every staged sandbox of the batch back if the worker is unreachable.
func (cp *ControlPlane) sendCreateBatch(addr string, chunk []*stagedCreate, sweepStart time.Time) {
	req := proto.CreateSandboxBatch{Creates: make([]proto.CreateSandboxRequest, 0, len(chunk))}
	for _, sc := range chunk {
		req.Creates = append(req.Creates, proto.CreateSandboxRequest{SandboxID: sc.id, Function: sc.fn})
	}
	payload := req.Marshal()
	cp.mCreateBatch.ObserveMs(float64(len(chunk)))
	sched := cp.clk.Since(sweepStart)
	for range chunk {
		cp.mSchedLatency.Observe(sched)
	}
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := cp.cfg.Transport.Call(ctx, addr, proto.MethodCreateSandboxBatch, payload); err != nil {
			for _, sc := range chunk {
				sc := sc
				cp.withFunction(sc.fn.Name, func(fs *functionState) {
					delete(fs.sandboxes, sc.id)
				})
				cp.cCreateRPCErrors.Inc()
			}
		}
	}()
}

// dispatchKills fans teardown decisions out to their workers: one
// KillSandboxBatch RPC per worker (chunked at maxBatch, like the create
// path), all workers in parallel — the downscale mirror of
// dispatchCreates.
func (cp *ControlPlane) dispatchKills(kills []*sandboxState) {
	if len(kills) == 0 {
		return
	}
	byWorker := make(map[string][]core.SandboxID)
	for _, sb := range kills {
		cp.cTeardowns.Inc()
		if cp.cfg.PersistSandboxState {
			_ = cp.cfg.DB.HDel(hashSandboxes, fmt.Sprintf("%d", sb.id))
		}
		byWorker[sb.workerAddr] = append(byWorker[sb.workerAddr], sb.id)
	}
	for addr, ids := range byWorker {
		for len(ids) > 0 {
			chunk := ids
			if len(chunk) > maxBatch {
				chunk = chunk[:maxBatch]
			}
			ids = ids[len(chunk):]
			cp.sendKillBatch(addr, chunk)
		}
	}
}

// sendKillBatch issues one batched teardown RPC asynchronously.
func (cp *ControlPlane) sendKillBatch(addr string, ids []core.SandboxID) {
	cp.mKillBatch.ObserveMs(float64(len(ids)))
	batch := proto.KillSandboxBatch{IDs: ids}
	payload := batch.Marshal()
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodKillSandboxBatch, payload)
	}()
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
	touched := make(map[string]bool)
	cp.forEachShard(func(sh *functionShard) {
		for name, fs := range sh.fns {
			for sid, sb := range fs.sandboxes {
				if sb.node == id {
					delete(fs.sandboxes, sid)
					touched[name] = true
				}
			}
		}
	})
	cp.metrics.Counter("worker_failures_detected").Inc()
	cp.broadcastEndpointsBatch(sortedKeys(touched))
	// Re-run autoscaling immediately so replacement sandboxes spin up
	// elsewhere without waiting a full tick.
	cp.Reconcile()
}

// broadcastFunctions pushes the registered function list to every data
// plane.
func (cp *ControlPlane) broadcastFunctions() {
	for _, addr := range cp.dataPlaneAddrs() {
		cp.sendFunctionsTo(addr)
	}
}

// dataPlaneAddrs returns the addresses of the live data plane replicas —
// the broadcast fan-out set. Replicas the health monitor has failed are
// excluded, so a sweep never burns an RPC timeout per dead replica; they
// rejoin (with a cache re-warm) when their heartbeats resume.
func (cp *ControlPlane) dataPlaneAddrs() []string {
	states := cp.snapshotDataPlanes()
	addrs := make([]string, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		if st.healthy {
			addrs = append(addrs, st.addr)
		}
		st.mu.Unlock()
	}
	return addrs
}

func dataPlaneAddr(p *core.DataPlane) string {
	return fmt.Sprintf("%s:%d", p.IP, p.Port)
}

func (cp *ControlPlane) sendFunctionsTo(addr string) {
	list := proto.FunctionList{Functions: cp.snapshotFunctions()}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodAddFunction, list.Marshal())
}

// sendEndpointsBatchTo warms one data plane's endpoint cache for every
// listed function in a single coalesced RPC.
func (cp *ControlPlane) sendEndpointsBatchTo(addr string, functions []string) {
	if len(functions) == 0 {
		return
	}
	for _, chunk := range cp.endpointBatchChunks(functions) {
		cp.mEndpointFanout.ObserveMs(float64(chunk.size))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodUpdateEndpointsBatch, chunk.payload)
		cancel()
	}
}

// endpointChunk is one marshaled UpdateEndpointsBatch payload and the
// number of function updates it carries.
type endpointChunk struct {
	payload []byte
	size    int
}

// endpointBatchChunks builds the coalesced endpoint-update payloads for
// the listed functions, chunked at maxBatch like the create path so no
// fan-out ever builds one unbounded message (a data plane
// warming against a huge function census, say).
func (cp *ControlPlane) endpointBatchChunks(functions []string) []endpointChunk {
	var chunks []endpointChunk
	for len(functions) > 0 {
		chunk := functions
		if len(chunk) > maxBatch {
			chunk = chunk[:maxBatch]
		}
		functions = functions[len(chunk):]
		batch := proto.EndpointUpdateBatch{Updates: make([]proto.EndpointUpdate, 0, len(chunk))}
		for _, fn := range chunk {
			batch.Updates = append(batch.Updates, *cp.endpointUpdate(fn))
		}
		chunks = append(chunks, endpointChunk{payload: batch.Marshal(), size: len(batch.Updates)})
	}
	return chunks
}

// endpointUpdate builds the versioned ready-endpoint set for one
// function. Sequencing is per function under its shard lock, so
// broadcasts for unrelated functions never serialize against each other.
func (cp *ControlPlane) endpointUpdate(function string) *proto.EndpointUpdate {
	update := &proto.EndpointUpdate{Function: function}
	cp.withFunction(function, func(fs *functionState) {
		fs.epSeq++
		// Leadership epoch in the high bits keeps versions monotonic
		// across failovers, where per-function sequences restart.
		update.Version = cp.epoch.Load()<<32 | fs.epSeq
		for _, sb := range fs.sandboxes {
			if sb.phase == phaseReady {
				update.Endpoints = append(update.Endpoints, proto.SandboxInfo{
					ID:       sb.id,
					Function: function,
					Node:     sb.node,
					Addr:     sb.workerAddr,
					State:    core.SandboxReady,
				})
			}
		}
	})
	return update
}

// broadcastEndpoints pushes the current ready-endpoint set for a function
// to all data planes (paper Table 2, "Add/remove LB endpoint"). The update
// carries the full endpoint list for the function, making it idempotent.
func (cp *ControlPlane) broadcastEndpoints(function string) {
	cp.broadcastEndpointsBatch([]string{function})
}

// broadcastEndpointsBatch pushes the ready-endpoint sets of every listed
// function to all data planes in one coalesced diff RPC per data plane
// (the updates for all changed functions share the RPC, its marshaling,
// and its round trip). Versions are still minted per function under the
// function's shard lock, so reordering protection stays per function.
func (cp *ControlPlane) broadcastEndpointsBatch(functions []string) {
	if len(functions) == 0 {
		return
	}
	addrs := cp.dataPlaneAddrs()
	if len(addrs) == 0 {
		return
	}
	for _, chunk := range cp.endpointBatchChunks(functions) {
		for _, addr := range addrs {
			addr, payload := addr, chunk.payload
			cp.mEndpointFanout.ObserveMs(float64(chunk.size))
			cp.wg.Add(1)
			go func() {
				defer cp.wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodUpdateEndpointsBatch, payload)
			}()
		}
	}
}

// sortedKeys returns a set's members in deterministic order, so batched
// fan-outs and tests see stable update ordering.
func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
