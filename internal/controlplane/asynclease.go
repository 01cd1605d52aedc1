package controlplane

import (
	"context"
	"sort"
	"time"

	"dirigent/internal/codec"
	"dirigent/internal/core"
	"dirigent/internal/proto"
)

// Lease failover for durable async queues (manager side).
//
// The paper makes async invocations at-least-once "through request
// persistence and a retry policy" (§3.4.2), but a pruned replica's
// persisted tasks would wait for that exact replica to restart with its
// store. The lease manager piggybacks on the DP health sweep: when a
// durable replica is pruned, its advertised queue hashes are partitioned
// round-robin across the surviving durable replicas and granted to them
// at a freshly minted epoch (proto.AsyncLease). Epochs come from one
// persisted, monotonic counter (fieldAsyncEpoch), so every grant — and
// every revival — outranks all earlier ones even across CP failovers.
//
// Lifecycle invariants:
//   - All grants for one dead owner share one epoch. If any lessee dies
//     mid-drain, the next sweep re-mints and re-grants the owner's whole
//     hash set to the current survivors; the old grants are out-fenced
//     wholesale rather than tracked per hash.
//   - Revival (a registration, or a heartbeat from a pruned replica)
//     revokes outstanding leases and mints the owner a strictly higher
//     epoch before the re-warm, so the revived owner's own settles
//     out-fence every lessee.
//   - Grants are re-sent on every sweep while the lease is outstanding;
//     the lessee treats an already-held epoch as a no-op, so lost grant
//     RPCs self-heal without extra bookkeeping.

// asyncLeaseState is one dead owner's outstanding lease: the epoch all
// its grants were minted at and the hash partition per lessee. Guarded
// by cp.asyncLeaseMu.
type asyncLeaseState struct {
	owner  core.DataPlaneID
	epoch  uint64
	assign map[core.DataPlaneID][]string
}

func marshalAsyncInfo(durable bool, hashes []string) []byte {
	e := codec.NewEncoder(8 + 16*len(hashes))
	e.Bool(durable)
	e.U32(uint32(len(hashes)))
	for _, h := range hashes {
		e.String(h)
	}
	return e.Bytes()
}

func unmarshalAsyncInfo(b []byte) (durable bool, hashes []string) {
	if len(b) == 0 {
		return false, nil
	}
	d := codec.NewDecoder(b)
	durable = d.Bool()
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		hashes = append(hashes, d.String())
	}
	if d.Err() != nil {
		return false, nil
	}
	return durable, hashes
}

// nextAsyncEpoch durably increments the cluster-wide async queue epoch.
// Callers must hold cp.asyncLeaseMu: minting under the lease mutex is
// what guarantees that whichever of a revival and a sweep's lease
// issuance runs second also holds the higher epoch.
func (cp *ControlPlane) nextAsyncEpoch() uint64 {
	var prev uint64
	if b, ok := cp.cfg.DB.HGetAll(hashMeta)[fieldAsyncEpoch]; ok && len(b) == 8 {
		for i := 0; i < 8; i++ {
			prev |= uint64(b[i]) << (8 * i)
		}
	}
	next := prev + 1
	buf := make([]byte, 8)
	for i := 0; i < 8; i++ {
		buf[i] = byte(next >> (8 * i))
	}
	_ = cp.cfg.DB.HSet(hashMeta, fieldAsyncEpoch, buf)
	return next
}

// reviveAsyncOwner handles a replica (re-)joining: it drops and revokes
// any lease still outstanding on the replica's records and mints the
// replica a fresh epoch that out-fences them. The caller must have
// marked the replica healthy first (putDataPlane or the heartbeat
// handler), so a concurrent sweep either sees it healthy and skips it,
// or issued its lease before this mint and is outranked by it.
func (cp *ControlPlane) reviveAsyncOwner(id core.DataPlaneID) uint64 {
	cp.asyncLeaseMu.Lock()
	epoch := cp.nextAsyncEpoch()
	ls := cp.asyncLeases[id]
	delete(cp.asyncLeases, id)
	cp.asyncLeaseMu.Unlock()
	if st := cp.getDataPlane(id); st != nil {
		st.mu.Lock()
		st.epoch = epoch
		st.mu.Unlock()
	}
	if ls != nil {
		// Best-effort, synchronous (like the cache re-warm that
		// follows): the fence the owner bumps on adopting its new epoch
		// is the actual safety mechanism; revokes just stop lessees from
		// burning work that can no longer settle.
		rv := proto.AsyncLeaseRevoke{Owner: id, Epoch: epoch}
		payload := rv.Marshal()
		for lessee := range ls.assign {
			if lst := cp.getDataPlane(lessee); lst != nil {
				cp.callDataPlaneAsync(lst.addr, proto.MethodAsyncLeaseRevoke, payload)
			}
		}
		cp.metrics.Counter("async_leases_recalled").Inc()
	}
	return epoch
}

// sweepAsyncLeases runs at the end of every DP health sweep: it leases
// each dead durable replica's hashes across the surviving durable
// replicas, re-leases (at a fresh epoch) any lease whose lessee has
// itself died, and re-sends grants for intact leases so lost RPCs heal.
func (cp *ControlPlane) sweepAsyncLeases() {
	states := cp.snapshotDataPlanes()
	healthySet := make(map[core.DataPlaneID]bool)
	var lessees []*dataPlaneState // healthy + durable, sorted by ID
	var dead []*dataPlaneState
	for _, st := range states {
		st.mu.Lock()
		ok := st.healthy
		st.mu.Unlock()
		if ok {
			healthySet[st.dp.ID] = true
			if st.durable {
				lessees = append(lessees, st)
			}
		} else {
			dead = append(dead, st)
		}
	}
	if len(lessees) == 0 {
		return // nobody to lease to; records wait (and later sweeps retry)
	}
	sort.Slice(lessees, func(i, j int) bool { return lessees[i].dp.ID < lessees[j].dp.ID })

	cp.asyncLeaseMu.Lock()
	defer cp.asyncLeaseMu.Unlock()
	for _, st := range dead {
		if !st.durable || len(st.asyncHashes) == 0 {
			continue
		}
		// Re-check under the lease mutex: a concurrent revival marks the
		// replica healthy before it mints, so seeing unhealthy here
		// means any racing revival will mint after (and above) us.
		st.mu.Lock()
		alive := st.healthy
		st.mu.Unlock()
		if alive {
			continue
		}
		ls := cp.asyncLeases[st.dp.ID]
		if ls != nil {
			intact := true
			for lessee := range ls.assign {
				if !healthySet[lessee] {
					intact = false
					break
				}
			}
			if intact {
				cp.resendGrantsLocked(ls)
				continue
			}
			// A lessee died mid-drain: re-mint and re-partition the
			// whole hash set; the fresh epoch out-fences the old grants.
		}
		epoch := cp.nextAsyncEpoch()
		assign := make(map[core.DataPlaneID][]string, len(lessees))
		for i, h := range st.asyncHashes {
			lessee := lessees[i%len(lessees)].dp.ID
			assign[lessee] = append(assign[lessee], h)
		}
		ls = &asyncLeaseState{owner: st.dp.ID, epoch: epoch, assign: assign}
		cp.asyncLeases[st.dp.ID] = ls
		cp.metrics.Counter("async_leases_issued").Inc()
		cp.resendGrantsLocked(ls)
	}
	cp.metrics.Gauge("async_leases_active").Set(int64(len(cp.asyncLeases)))
}

// resendGrantsLocked pushes a lease's grants to its lessees (async,
// best-effort). A lessee already holding the epoch treats the grant as a
// no-op, so re-sends are free self-healing for lost RPCs.
func (cp *ControlPlane) resendGrantsLocked(ls *asyncLeaseState) {
	for lessee, hashes := range ls.assign {
		st := cp.getDataPlane(lessee)
		if st == nil {
			continue
		}
		g := proto.AsyncLease{Owner: ls.owner, Epoch: ls.epoch, Hashes: hashes}
		cp.callDataPlaneAsync(st.addr, proto.MethodAsyncLeaseGrant, g.Marshal())
	}
}

// callDataPlaneAsync fires one best-effort RPC at a data plane without
// blocking the caller (health sweeps and revival handlers must not stall
// on an unreachable replica's timeout).
func (cp *ControlPlane) callDataPlaneAsync(addr, method string, payload []byte) {
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := cp.cfg.Transport.Call(ctx, addr, method, payload); err != nil {
			cp.metrics.Counter("async_lease_rpc_errors").Inc()
		}
	}()
}

// AsyncLeaseCount reports the number of owners whose records are
// currently leased out, for tests and harnesses.
func (cp *ControlPlane) AsyncLeaseCount() int {
	cp.asyncLeaseMu.Lock()
	defer cp.asyncLeaseMu.Unlock()
	return len(cp.asyncLeases)
}

// asyncLeaseEpoch returns the epoch of the outstanding lease on owner, 0
// if none.
func (cp *ControlPlane) asyncLeaseEpoch(owner core.DataPlaneID) uint64 {
	cp.asyncLeaseMu.Lock()
	defer cp.asyncLeaseMu.Unlock()
	if ls := cp.asyncLeases[owner]; ls != nil {
		return ls.epoch
	}
	return 0
}
