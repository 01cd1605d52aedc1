package controlplane

import (
	"sync"
	"time"

	"dirigent/internal/core"
)

// defaultStateShards is the number of locks striping the function state
// map. 32 shards keep the probability of two of a handful of hot
// functions colliding low while the array stays small enough to sweep
// cheaply in the autoscale loop.
const defaultStateShards = 32

// functionShard is one stripe of the control plane's function state: a
// slice of the function map guarded by its own mutex. Sandbox
// transitions, scaling-metric records and endpoint-sequence bumps for
// functions in different shards proceed in parallel; only same-shard
// functions contend.
type functionShard struct {
	mu  sync.Mutex
	fns map[string]*functionState
}

func newShards(n int) []*functionShard {
	shards := make([]*functionShard, n)
	for i := range shards {
		shards[i] = &functionShard{fns: make(map[string]*functionState)}
	}
	return shards
}

// shardFor maps a function name to its shard (FNV-1a, folded to 16 bits
// by core.FunctionHash — plenty for any sane shard count).
func (cp *ControlPlane) shardFor(name string) *functionShard { return shardOf(cp, name) }

// shardOf is shardFor for a name held either as a string or as bytes
// still inside a received payload.
func shardOf[S string | []byte](cp *ControlPlane, name S) *functionShard {
	return cp.shards[uint32(core.FunctionHash(name))%uint32(len(cp.shards))]
}

// lockShard acquires sh.mu, recording contended acquisitions in the
// shard_lock_wait_ms histogram. The uncontended fast path is a single
// TryLock so the telemetry costs nothing when sharding is doing its job.
func (cp *ControlPlane) lockShard(sh *functionShard) {
	if sh.mu.TryLock() {
		return
	}
	start := time.Now()
	sh.mu.Lock()
	cp.mShardContended.Inc()
	cp.mShardWait.Observe(time.Since(start))
}

// withFunction runs fn with the shard lock held and the function's state,
// or with nil state if the function is unknown. It reports whether the
// function existed.
func (cp *ControlPlane) withFunction(name string, fn func(fs *functionState)) bool {
	sh := cp.shardFor(name)
	cp.lockShard(sh)
	defer sh.mu.Unlock()
	fs, ok := sh.fns[name]
	if !ok {
		return false
	}
	fn(fs)
	return true
}

// forEachShard visits every shard in turn, calling fn with that shard's
// lock held. Loops that used to hold the seed's global mutex for a whole
// sweep (autoscaling, worker failure draining, status) iterate per-shard
// snapshots instead, so a sweep never blocks more than 1/len(shards) of
// the function space at a time.
func (cp *ControlPlane) forEachShard(fn func(sh *functionShard)) {
	for _, sh := range cp.shards {
		cp.lockShard(sh)
		fn(sh)
		sh.mu.Unlock()
	}
}

// snapshotFunctions returns a copy of every registered function spec.
// The snapshot is per-shard consistent, which is all the broadcast and
// status paths need.
func (cp *ControlPlane) snapshotFunctions() []core.Function {
	var out []core.Function
	cp.forEachShard(func(sh *functionShard) {
		for _, fs := range sh.fns {
			out = append(out, fs.fn)
		}
	})
	return out
}
