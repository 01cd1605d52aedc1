package dataplane

import (
	"cmp"
	"maps"
	"slices"
	"sync"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/loadbalancer"
)

// registryShards is the number of stripes in the data plane's function
// registry, matching the control plane's state-manager default: small
// enough to sweep cheaply, large enough that a handful of hot functions
// rarely collide on registry mutations.
const registryShards = 32

// invokeShard is one stripe of the function registry: a plain map,
// updated in place under mu. Lookups on the invoke hot path take the read
// lock; registration and deregistration take the write lock for one map
// insert or delete, so learning a function costs O(1) however many the
// registry holds.
//
// Lock order: a shard's lock is never held while taking a runtime's mu.
// sync.RWMutex queues new readers behind a waiting writer, so a path that
// held a shard's read lock while it waited on fr.mu would deadlock with a
// writer queued on that shard and a path that holds fr.mu and then looks a
// name up in it.
//
// A Go map keeps the table of its largest size, so a stripe whose map has
// fallen to a quarter of the size it was built up to is rebuilt at its
// current size (removeRuntime): the rebuild copies at most a third as
// many entries as were removed since the map was built, so its cost is
// amortized O(1) per removal.
type invokeShard struct {
	mu   sync.RWMutex
	fns  map[string]*functionRuntime
	peak int // the most entries fns has held since it was built
}

// shrinkFloor is the peak below which a stripe is not rebuilt: a map of
// at most eight entries is one group, which a rebuild would not shrink.
const shrinkFloor = 8

func newRegistryShards() []*invokeShard {
	shards := make([]*invokeShard, registryShards)
	for i := range shards {
		shards[i] = &invokeShard{fns: make(map[string]*functionRuntime)}
	}
	return shards
}

// shardFor maps a function name to its registry stripe (FNV-1a folded to
// 16 bits by core.FunctionHash, same striping as the control plane).
func (dp *DataPlane) shardFor(name string) *invokeShard {
	return dp.shards[uint32(core.FunctionHash(name))%uint32(len(dp.shards))]
}

// lookup resolves a function runtime under its shard's read lock; nil
// means unknown.
func (dp *DataPlane) lookup(name string) *functionRuntime {
	sh := dp.shardFor(name)
	sh.mu.RLock()
	fr := sh.fns[name]
	sh.mu.RUnlock()
	return fr
}

// lookupBytes is lookup for a name still inside a received payload; the
// map index converts it without allocating.
func (dp *DataPlane) lookupBytes(name []byte) *functionRuntime {
	sh := dp.shards[uint32(core.FunctionHash(name))%uint32(len(dp.shards))]
	sh.mu.RLock()
	fr := sh.fns[string(name)]
	sh.mu.RUnlock()
	return fr
}

// getOrCreate resolves the runtime of the function called name, creating
// a shell entry when the name is unknown, which costs the name's copy and
// the runtime. Only a function push (AddFunction, SyncFunctions) creates
// one.
func (dp *DataPlane) getOrCreate(name []byte) *functionRuntime {
	if fr := dp.lookupBytes(name); fr != nil {
		return fr
	}
	sh := dp.shards[uint32(core.FunctionHash(name))%uint32(len(dp.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr := sh.fns[string(name)]; fr != nil {
		return fr
	}
	fr := dp.newRuntime(string(name))
	sh.fns[fr.name] = fr
	sh.peak = max(sh.peak, len(sh.fns))
	return fr
}

// runtimes returns the registered runtimes keep accepts, or all of them
// when keep is nil. They are collected under each shard's read lock, so
// keep must take no lock, and the caller acts on them once none is held.
func (dp *DataPlane) runtimes(keep func(fr *functionRuntime) bool) []*functionRuntime {
	var out []*functionRuntime
	for _, sh := range dp.shards {
		sh.mu.RLock()
		for _, fr := range sh.fns {
			if keep == nil || keep(fr) {
				out = append(out, fr)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// lockLive locks fr against concurrent deregistration: a runtime that
// went dead between the lookup and the lock acquisition is
// re-resolved, so callers always mutate the registry's live entry.
// Returns nil when the data plane is shutting down mid-retry.
func (dp *DataPlane) lockLive(name []byte) *functionRuntime {
	for {
		fr := dp.getOrCreate(name)
		dp.lockRuntime(fr)
		if !fr.dead {
			return fr
		}
		fr.mu.Unlock()
		if dp.stopped.Load() {
			return nil
		}
	}
}

// lockKnown is lockLive for a function named by bytes still inside a
// received payload, which never creates a runtime: it returns nil when the
// function is unknown.
func (dp *DataPlane) lockKnown(name []byte) *functionRuntime {
	for {
		fr := dp.lookupBytes(name)
		if fr == nil {
			return nil
		}
		dp.lockRuntime(fr)
		if !fr.dead {
			return fr
		}
		fr.mu.Unlock()
	}
}

// removeFunction unpublishes the runtime of the function called name
// from the registry and fails its queued invocations. Safe to call for
// unknown names.
func (dp *DataPlane) removeFunction(name string) {
	if fr := dp.lookup(name); fr != nil {
		dp.removeRuntime(fr)
	}
}

// removeRuntime unpublishes fr, if the registry still holds it, and fails
// its queued invocations.
func (dp *DataPlane) removeRuntime(fr *functionRuntime) {
	sh := dp.shardFor(fr.name)
	sh.mu.Lock()
	held := sh.fns[fr.name] == fr
	if held {
		delete(sh.fns, fr.name)
		if sh.peak > shrinkFloor && len(sh.fns) <= sh.peak/4 {
			sh.fns = maps.Clone(sh.fns) // sized for what it holds
			sh.peak = len(sh.fns)
		}
	}
	sh.mu.Unlock()
	if !held {
		return
	}
	dp.lockRuntime(fr)
	fr.dead = true
	queue := fr.queue
	fr.queue = nil
	fr.queued.Store(0)
	// Stragglers holding the stale runtime pointer must stop routing to
	// its endpoints: clear the snapshot so their warm picks miss and
	// their cold-path enqueue sees dead.
	fr.snap.Store(emptySnapshot)
	fr.mu.Unlock()
	for _, p := range queue {
		p.grant <- grant{err: deregisteredErr(fr.name)}
	}
}

// lockRuntime acquires fr.mu, recording contended acquisitions in the
// invoke_lock_wait_ms histogram. The uncontended fast path is a single
// TryLock so the telemetry costs nothing when the sharding is doing its
// job.
func (dp *DataPlane) lockRuntime(fr *functionRuntime) {
	if fr.mu.TryLock() {
		return
	}
	start := time.Now()
	fr.mu.Lock()
	dp.mInvokeContended.Inc()
	dp.mInvokeWait.Observe(time.Since(start))
}

// endpointSnapshot is an immutable view of a function's ready endpoints,
// sorted by sandbox ID, rebuilt under fr.mu whenever the endpoint set (or
// per-endpoint capacity) changes and published through fr.snap. Warm-start
// picks and metric reports read it without locking and without building a
// candidate slice per invocation; only the shared in-flight counters
// behind eps[i].InFlight mutate after publication. eps[i] and states[i]
// are the same sandbox.
type endpointSnapshot struct {
	eps    []loadbalancer.SnapshotEndpoint
	states []*endpointState
	// oneEp and oneSt back eps and states when the set has one sandbox,
	// the common case, whose snapshot is then a single allocation.
	oneEp [1]loadbalancer.SnapshotEndpoint
	oneSt [1]*endpointState
}

var emptySnapshot = &endpointSnapshot{}

// newSnapshot returns a snapshot with room for n endpoints, to be filled
// through its states and published by publishLocked.
func newSnapshot(n int) *endpointSnapshot {
	s := &endpointSnapshot{}
	if n == 1 {
		s.eps, s.states = s.oneEp[:0], s.oneSt[:0]
	} else {
		s.eps = make([]loadbalancer.SnapshotEndpoint, 0, n)
		s.states = make([]*endpointState, 0, n)
	}
	return s
}

// publishLocked sorts snap's states by sandbox ID, keeps one state per
// sandbox, derives eps from them and publishes the snapshot as fr's
// endpoint set: emptySnapshot if no state is left. Callers hold fr.mu.
func (dp *DataPlane) publishLocked(fr *functionRuntime, snap *endpointSnapshot) {
	dp.mSnapRebuilds.Inc()
	if len(snap.states) == 0 {
		fr.snap.Store(emptySnapshot)
		return
	}
	slices.SortFunc(snap.states, func(a, b *endpointState) int { return cmp.Compare(a.info.ID, b.info.ID) })
	snap.states = slices.CompactFunc(snap.states, func(a, b *endpointState) bool { return a.info.ID == b.info.ID })
	for _, st := range snap.states {
		snap.eps = append(snap.eps, loadbalancer.SnapshotEndpoint{
			SandboxID: st.info.ID,
			Addr:      st.info.Addr,
			InFlight:  &st.inFlight,
			Capacity:  st.capacity,
		})
	}
	fr.snap.Store(snap)
}
