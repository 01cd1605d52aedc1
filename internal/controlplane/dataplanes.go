package controlplane

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
)

// Data plane replicas are first-class, dynamic members of the cluster,
// with the same lifecycle worker nodes have: they register, heartbeat,
// are failed by the health monitor when heartbeats stop, and are revived
// (with a full cache re-warm) when heartbeats resume. The live set feeds
// two consumers: the endpoint/function broadcast fan-out — pruning a dead
// replica keeps every autoscale sweep from burning an RPC timeout on it —
// and the front-end load balancer, which polls MethodListDataPlanes to
// keep its failover membership in sync (paper §5.1 runs the DP tier
// active-active behind HAProxy; §3.4.2 restarts failed replicas).

// dataPlaneState is one data plane's registry entry. dp and addr are
// immutable after registration; the mutable liveness fields are guarded
// by mu, mirroring workerState. The set is small (a handful of replicas),
// so the registry itself stays behind the single dpMu RWMutex.
type dataPlaneState struct {
	dp   core.DataPlane
	addr string
	// durable/asyncHashes describe the replica's durable async queue
	// (advertised at registration, immutable per incarnation): the
	// hashes the lease manager reassigns to survivors if this replica is
	// pruned.
	durable     bool
	asyncHashes []string

	mu      sync.Mutex
	lastHB  time.Time
	healthy bool
	// epoch is the async queue epoch last assigned to this replica
	// (minted at registration and at every revival); heartbeat acks
	// repeat it so the replica converges even if the assigning reply was
	// lost.
	epoch uint64
	// needsSync marks a replica that a function delta or removal failed
	// to reach: its next heartbeat is answered with a full-list sync.
	needsSync bool
	// owed holds the functions whose endpoint sets the replica has yet to
	// be sent, and flushing is set while its sender (flushEndpoints)
	// drains them. A pruned replica is owed nothing: the sweep drops the
	// set, and revival owes it every function.
	owed     map[string]struct{}
	flushing bool
	// names and buf belong to the running sender: its batch's function
	// names and the buffer its payloads are written into, kept from one
	// flush to the next.
	names []string
	buf   []byte
}

// putDataPlane inserts or replaces a registry entry for a (re-)registered
// replica.
func (cp *ControlPlane) putDataPlane(p core.DataPlane, durable bool, asyncHashes []string) *dataPlaneState {
	st := &dataPlaneState{
		dp:          p,
		addr:        dataPlaneAddr(&p),
		durable:     durable,
		asyncHashes: asyncHashes,
		lastHB:      cp.clk.Now(),
		healthy:     true,
	}
	cp.dpMu.Lock()
	prev := cp.dataplanes[p.ID]
	cp.dataplanes[p.ID] = st
	cp.dpMu.Unlock()
	if prev != nil {
		// The replaced entry's sender stops after its call in flight.
		prev.mu.Lock()
		clear(prev.owed)
		prev.mu.Unlock()
	}
	cp.refreshDataPlaneGauge()
	return st
}

// getDataPlane returns the registry entry for a replica, or nil.
func (cp *ControlPlane) getDataPlane(id core.DataPlaneID) *dataPlaneState {
	cp.dpMu.RLock()
	st := cp.dataplanes[id]
	cp.dpMu.RUnlock()
	return st
}

// snapshotDataPlanes copies the registry's entries under the read lock.
// Callers inspect per-replica liveness through each entry's own mutex
// without holding dpMu — the one place the registry's locking discipline
// is spelled out.
func (cp *ControlPlane) snapshotDataPlanes() []*dataPlaneState {
	cp.dpMu.RLock()
	states := make([]*dataPlaneState, 0, len(cp.dataplanes))
	for _, st := range cp.dataplanes {
		states = append(states, st)
	}
	cp.dpMu.RUnlock()
	return states
}

// handleDataPlaneHeartbeat refreshes one replica's liveness. A heartbeat
// from a replica the health monitor had failed revives it with a full
// cache re-warm (functions, then every function's endpoints), because the
// replica's caches may have missed any number of broadcasts while it was
// out of the fan-out set. A heartbeat from an unknown replica re-admits
// it the same way — the in-memory entry can be lost to a leadership
// change racing the heartbeat. A heartbeat from a live replica that a
// function delta failed to reach is answered with the same re-warm, the
// repair path for a lost delta: a lost delta may have taken the
// function's endpoints with it.
func (cp *ControlPlane) handleDataPlaneHeartbeat(payload []byte) ([]byte, error) {
	hb, err := proto.UnmarshalDataPlaneHeartbeat(payload)
	if err != nil {
		return nil, err
	}
	st := cp.getDataPlane(hb.DataPlane.ID)
	if st == nil {
		durable, hashes := unmarshalAsyncInfo(cp.cfg.DB.HGetAll(hashDPAsync)[fmt.Sprintf("%d", hb.DataPlane.ID)])
		st = cp.putDataPlane(hb.DataPlane, durable, hashes)
		cp.metrics.Counter("dataplane_revivals").Inc()
		// Revoke-before-rewarm: any lease on this replica's records must
		// be out-fenced before the replica resumes settling them.
		epoch := cp.reviveAsyncOwner(hb.DataPlane.ID)
		cp.warmDataPlane(st)
		ack := proto.DataPlaneEpochAck{Epoch: epoch}
		return ack.Marshal(), nil
	}
	st.mu.Lock()
	st.lastHB = cp.clk.Now()
	revived := !st.healthy
	st.healthy = true
	needsSync := st.needsSync
	epoch := st.epoch
	st.mu.Unlock()
	if revived {
		cp.metrics.Counter("dataplane_revivals").Inc()
		cp.refreshDataPlaneGauge()
		epoch = cp.reviveAsyncOwner(st.dp.ID)
	}
	if revived || needsSync {
		cp.warmDataPlane(st)
	}
	ack := proto.DataPlaneEpochAck{Epoch: epoch}
	return ack.Marshal(), nil
}

// warmDataPlane pushes the full function list to one replica and, once it
// holds it, owes it every function's endpoint set — the cache re-warm a
// replica needs when it (re-)joins the fan-out set.
func (cp *ControlPlane) warmDataPlane(st *dataPlaneState) {
	cp.syncFunctions([]*dataPlaneState{st}, true)
}

// handleListDataPlanes returns the live replica set, sorted by ID for
// deterministic membership diffs on the front end.
func (cp *ControlPlane) handleListDataPlanes() ([]byte, error) {
	list := proto.DataPlaneList{}
	for _, st := range cp.snapshotDataPlanes() {
		st.mu.Lock()
		if st.healthy {
			list.DataPlanes = append(list.DataPlanes, st.dp)
		}
		st.mu.Unlock()
	}
	sort.Slice(list.DataPlanes, func(i, j int) bool {
		return list.DataPlanes[i].ID < list.DataPlanes[j].ID
	})
	return list.Marshal(), nil
}

// sweepDataPlanes fails every replica whose last heartbeat is older than
// DataPlaneTimeout, removing it from the broadcast fan-out set so
// subsequent sweeps never block on an unreachable replica. Run from
// HealthSweep alongside the worker scan.
func (cp *ControlPlane) sweepDataPlanes(now time.Time) {
	var failed []core.DataPlaneID
	for _, st := range cp.snapshotDataPlanes() {
		st.mu.Lock()
		if st.healthy && now.Sub(st.lastHB) > cp.cfg.DataPlaneTimeout {
			st.healthy = false
			clear(st.owed)
			failed = append(failed, st.dp.ID)
		}
		st.mu.Unlock()
	}
	if len(failed) > 0 {
		cp.metrics.Counter("dataplane_failures_detected").Add(int64(len(failed)))
		cp.dropDemand(failed...)
		cp.refreshDataPlaneGauge()
	}
	// Lease dead durable replicas' queue hashes to survivors (and
	// re-lease any lease whose lessee has itself died) — see
	// asynclease.go.
	cp.sweepAsyncLeases()
}

// dataPlaneCounts reports (healthy, total) registered replicas.
func (cp *ControlPlane) dataPlaneCounts() (healthy, total int) {
	states := cp.snapshotDataPlanes()
	for _, st := range states {
		st.mu.Lock()
		if st.healthy {
			healthy++
		}
		st.mu.Unlock()
	}
	return healthy, len(states)
}

// DataPlaneCount reports the number of live data plane replicas, used by
// tests and harnesses to observe fan-out pruning.
func (cp *ControlPlane) DataPlaneCount() int {
	healthy, _ := cp.dataPlaneCounts()
	return healthy
}

// refreshDataPlaneGauge runs on every membership or liveness change; with
// more than one peer it doubles as the trigger for republishing
// the live membership list to followers (see publishDataPlanes).
func (cp *ControlPlane) refreshDataPlaneGauge() {
	healthy, _ := cp.dataPlaneCounts()
	cp.metrics.Gauge("dataplane_count").Set(int64(healthy))
	cp.publishDataPlanes()
}
