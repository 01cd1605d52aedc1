package dataplane

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/loadbalancer"
)

// registryShards is the number of stripes in the data plane's function
// registry, matching the control plane's state-manager default: small
// enough to sweep cheaply, large enough that a handful of hot functions
// rarely collide on registry mutations.
const registryShards = 32

// invokeShard is one stripe of the function registry. Lookups on the
// invoke hot path go through the copy-on-write map published in fns and
// never lock; mutations (function registration, deregistration) take
// sh.mu, copy the map, and atomically publish the successor.
type invokeShard struct {
	mu  sync.Mutex
	fns atomicFnMap
}

// atomicFnMap is an atomically published immutable function map.
type atomicFnMap struct {
	p atomic.Pointer[map[string]*functionRuntime]
}

func (m *atomicFnMap) load() map[string]*functionRuntime { return *m.p.Load() }
func (m *atomicFnMap) store(next map[string]*functionRuntime) {
	m.p.Store(&next)
}

func newRegistryShards() []*invokeShard {
	shards := make([]*invokeShard, registryShards)
	for i := range shards {
		sh := &invokeShard{}
		sh.fns.store(make(map[string]*functionRuntime))
		shards[i] = sh
	}
	return shards
}

// shardFor maps a function name to its registry stripe (FNV-1a folded to
// 16 bits by core.FunctionHash, same striping as the control plane).
func (dp *DataPlane) shardFor(name string) *invokeShard {
	return dp.shards[uint32(core.FunctionHash(name))%uint32(len(dp.shards))]
}

// lookup resolves a function runtime lock-free; nil means unknown.
func (dp *DataPlane) lookup(name string) *functionRuntime {
	return dp.shardFor(name).fns.load()[name]
}

// lookupBytes is lookup for a name still inside a received payload; the
// map index converts it without allocating.
func (dp *DataPlane) lookupBytes(name []byte) *functionRuntime {
	sh := dp.shards[uint32(core.FunctionHash(name))%uint32(len(dp.shards))]
	return sh.fns.load()[string(name)]
}

// getOrCreate resolves a function runtime, creating a shell entry when
// the name is unknown. Only a function push (AddFunction, SyncFunctions)
// creates one. The double-checked fast path keeps steady-state resolution
// lock-free.
func (dp *DataPlane) getOrCreate(name string) *functionRuntime {
	sh := dp.shardFor(name)
	if fr := sh.fns.load()[name]; fr != nil {
		return fr
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.fns.load()
	if fr := cur[name]; fr != nil {
		return fr
	}
	fr := dp.newRuntime(name)
	next := make(map[string]*functionRuntime, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[name] = fr
	sh.fns.store(next)
	return fr
}

// lockLive locks fr against concurrent deregistration: a runtime that
// went dead between the lock-free lookup and the lock acquisition is
// re-resolved, so callers always mutate the registry's live entry.
// Returns nil when the data plane is shutting down mid-retry.
func (dp *DataPlane) lockLive(name string) *functionRuntime {
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

// removeFunction unpublishes a runtime from the registry and fails its
// queued invocations. Safe to call for unknown names.
func (dp *DataPlane) removeFunction(name string) {
	sh := dp.shardFor(name)
	sh.mu.Lock()
	cur := sh.fns.load()
	fr, ok := cur[name]
	if !ok {
		sh.mu.Unlock()
		return
	}
	next := make(map[string]*functionRuntime, len(cur)-1)
	for k, v := range cur {
		if k != name {
			next[k] = v
		}
	}
	sh.fns.store(next)
	sh.mu.Unlock()

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
		p.grant <- grant{err: deregisteredErr(name)}
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
