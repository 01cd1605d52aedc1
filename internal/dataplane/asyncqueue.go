package dataplane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dirigent/internal/codec"
	"dirigent/internal/core"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
)

// Asynchronous invocations provide at-least-once semantics "through
// request persistence and a retry policy" (paper §3.4.2). When the data
// plane is configured with a persistent store, every accepted async
// invocation is durably recorded before acknowledgement and deleted only
// after it completes or exhausts its retries; a restarted replica
// re-enqueues whatever survived the crash. Re-execution of a task that
// completed between persistence and deletion is possible — exactly the
// at-least-once contract FaaS platforms document, which is why they advise
// idempotent functions (paper §2.1).
//
// The queue is sharded by function hash into asyncQueueShards stripes:
// each shard owns its own pending buffer, its own dispatch loop, and its
// own store hash ("async-queue-<i>"), so acceptance, dispatch,
// persistence and crash replay scale with the shard count instead of
// serializing on one buffer and one store hash.
//
// Inside a shard, pending tasks are kept in per-function FIFO queues
// dispatched deficit-round-robin, so one hot function's burst fills only
// its own queue's share of dispatch slots instead of head-of-line
// blocking every co-resident function the way the old single FIFO
// channel did. Order within a function is unchanged (still FIFO), so the
// seed's per-function semantics are preserved.
//
// Records carry their owner replica in the store key ("<id>-<seq>"), so
// replicas that share one durable store coexist in the same hashes; the
// control plane can lease a dead owner's records to survivors (see
// asynclease.go) instead of stranding them until that exact replica
// restarts.

// asyncQueueHash is the legacy store hash for pending async invocations,
// written by binaries that ran a single unsharded queue; replay still
// scans it so an upgrade restart strands nothing. It is also the prefix
// of every shard's hash.
const asyncQueueHash = "async-queue"

// asyncIndexHash records every shard hash that has ever held a durable
// record, so crash replay can scan exactly the hashes any earlier shard
// count wrote — no binary that striped the queue differently can strand
// an acknowledged task.
const asyncIndexHash = "async-queue-index"

// asyncQueueShards matches the data plane's registry striping.
const asyncQueueShards = 32

// asyncShardCap bounds each shard's queued tasks. Every shard gets the
// whole capacity the unsharded queue had: splitting it would cut how big
// an async burst one hot function can absorb (all of a function's tasks
// hash to one shard). Total buffering therefore scales with the shard
// count, like the rest of the sharded queue.
const asyncShardCap = 4096

// asyncDRRQuantum is the deficit-round-robin quantum: how many tasks one
// function's queue may dispatch before yielding the shard to the next
// active function. Small enough that a co-resident function waits at
// most quantum×(active functions) dispatches, large enough to keep a
// single-function workload's dispatch loop tight.
const asyncDRRQuantum = 8

var asyncSeq atomic.Uint64

var (
	errAsyncQueueFull = errors.New("data plane: async queue full")
	errAsyncQuota     = errors.New("data plane: async per-function quota exceeded")
)

// asyncCounters are the async path's counters (accept, dispatch, settle,
// recovery and leases), resolved once at construction like the warm
// path's, so no async step looks a counter up by name.
type asyncCounters struct {
	accepted, rejected, completed, failed      *telemetry.Counter
	retries, backoff, requeued, leaseDropped   *telemetry.Counter
	settleFenced, settleUpgraded, settleErrors *telemetry.Counter
	settleParked, fenceErrors                  *telemetry.Counter
	recovered, recoverCorrupt                  *telemetry.Counter
	leaseNoStore, leasesGranted, leasesRevoked *telemetry.Counter
	leaseDrained                               *telemetry.Counter
}

func newAsyncCounters(r *telemetry.Registry) asyncCounters {
	return asyncCounters{
		accepted:       r.Counter("async_accepted"),
		rejected:       r.Counter("async_rejected"),
		completed:      r.Counter("async_completed"),
		failed:         r.Counter("async_failed"),
		retries:        r.Counter("async_retries"),
		backoff:        r.Counter("async_backoff"),
		requeued:       r.Counter("async_requeued"),
		leaseDropped:   r.Counter("async_lease_dropped"),
		settleFenced:   r.Counter("async_settle_fenced"),
		settleUpgraded: r.Counter("async_settle_upgraded"),
		settleErrors:   r.Counter("async_settle_errors"),
		settleParked:   r.Counter("async_settle_parked"),
		fenceErrors:    r.Counter("async_fence_errors"),
		recovered:      r.Counter("async_recovered"),
		recoverCorrupt: r.Counter("async_recover_corrupt"),
		leaseNoStore:   r.Counter("async_lease_nostore"),
		leasesGranted:  r.Counter("async_leases_granted"),
		leasesRevoked:  r.Counter("async_leases_revoked"),
		leaseDrained:   r.Counter("async_lease_drained"),
	}
}

// asyncFnQueue is one function's FIFO inside a shard. A queue is present
// in the shard's map and dispatch ring exactly while it has tasks.
type asyncFnQueue struct {
	name    string
	tasks   []asyncTask
	deficit int
}

// asyncShard is one stripe of the asynchronous queue: per-function
// pending FIFOs dispatched deficit-round-robin by the shard's own
// dispatch loop, plus the store hash its durable records live under.
// indexed flips once the hash has been registered in asyncIndexHash, so
// the index write costs one HSet per shard per store lifetime.
type asyncShard struct {
	hash    string
	indexed atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	fns     map[string]*asyncFnQueue
	ring    []*asyncFnQueue // active (non-empty) queues, DRR order
	ringIdx int
	size    int // total queued tasks across fns
	capa    int // admission bound on size
	quota   int // per-function bound for client accepts, 0 = off
	stopped bool
}

func newAsyncShard(hash string, capa, quota int) *asyncShard {
	sh := &asyncShard{hash: hash, capa: capa, quota: quota, fns: make(map[string]*asyncFnQueue)}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

func newAsyncShards(quota int) []*asyncShard {
	shards := make([]*asyncShard, asyncQueueShards)
	for i := range shards {
		shards[i] = newAsyncShard(fmt.Sprintf("%s-%d", asyncQueueHash, i), asyncShardCap, quota)
	}
	return shards
}

// pushLocked appends t to its function's FIFO, activating the queue in
// the dispatch ring if it was empty. Callers hold sh.mu.
func (sh *asyncShard) pushLocked(t asyncTask) {
	fq := sh.fns[t.function]
	if fq == nil {
		fq = &asyncFnQueue{name: t.function}
		sh.fns[t.function] = fq
		sh.ring = append(sh.ring, fq)
	}
	fq.tasks = append(fq.tasks, t)
	sh.size++
	sh.cond.Broadcast()
}

// tryAdmit queues t without blocking: errAsyncQueueFull when the shard is
// at capacity (or stopping), errAsyncQuota when enforceQuota is set and
// the function already has quota tasks pending. Quota applies only to
// client accepts — recovery, lease drains and retries bypass it, since
// rejecting an already-acknowledged task cannot un-acknowledge it.
func (sh *asyncShard) tryAdmit(t asyncTask, enforceQuota bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopped || sh.size >= sh.capa {
		return errAsyncQueueFull
	}
	if enforceQuota && sh.quota > 0 {
		if fq := sh.fns[t.function]; fq != nil && len(fq.tasks) >= sh.quota {
			return errAsyncQuota
		}
	}
	sh.pushLocked(t)
	return nil
}

// admitBlocking queues t, waiting for capacity if the shard is full.
// Returns false only when the shard is stopping (the caller's durable
// record stays put for the next incarnation). Used by crash recovery and
// lease drains, whose tasks were acknowledged long ago and must be
// dispatched in this incarnation rather than dropped on overflow.
func (sh *asyncShard) admitBlocking(t asyncTask) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.size >= sh.capa && !sh.stopped {
		sh.cond.Wait()
	}
	if sh.stopped {
		return false
	}
	sh.pushLocked(t)
	return true
}

// next blocks until a task is dispatchable and pops it deficit-round-
// robin: each active function's FIFO dispatches up to asyncDRRQuantum
// tasks per ring visit, so a hot function's burst cannot starve
// co-resident functions. Returns false when the shard is stopping.
func (sh *asyncShard) next() (asyncTask, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.size == 0 && !sh.stopped {
		sh.cond.Wait()
	}
	if sh.stopped {
		return asyncTask{}, false
	}
	if sh.ringIdx >= len(sh.ring) {
		sh.ringIdx = 0
	}
	fq := sh.ring[sh.ringIdx]
	if fq.deficit <= 0 {
		fq.deficit = asyncDRRQuantum
	}
	t := fq.tasks[0]
	fq.tasks[0] = asyncTask{} // drop payload reference
	fq.tasks = fq.tasks[1:]
	fq.deficit--
	sh.size--
	if len(fq.tasks) == 0 {
		delete(sh.fns, fq.name)
		sh.ring = append(sh.ring[:sh.ringIdx], sh.ring[sh.ringIdx+1:]...)
	} else if fq.deficit == 0 {
		sh.ringIdx++
	}
	sh.cond.Broadcast()
	return t, true
}

// pending reports the shard's queued task count.
func (sh *asyncShard) pending() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.size
}

// stop wakes every blocked admitter and the dispatch loop; tasks still
// queued are abandoned in memory (their durable records survive).
func (sh *asyncShard) stop() {
	sh.mu.Lock()
	sh.stopped = true
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// asyncShardFor maps a function to its queue stripe (same FNV-1a striping
// as the invoke registry, so a function's tasks always replay in order
// from one shard's hash).
func (dp *DataPlane) asyncShardFor(function string) *asyncShard {
	return dp.asyncShards[uint32(core.FunctionHash(function))%asyncQueueShards]
}

func marshalAsyncTask(t asyncTask) []byte {
	e := codec.NewEncoder(16 + len(t.function) + len(t.payload))
	e.String(t.function)
	e.RawBytes(t.payload)
	e.I64(int64(t.attempt))
	return e.Bytes()
}

func unmarshalAsyncTask(b []byte) (asyncTask, error) {
	d := codec.NewDecoder(b)
	var t asyncTask
	t.function = d.String()
	if p := d.RawBytes(); len(p) > 0 {
		t.payload = append([]byte(nil), p...)
	}
	t.attempt = int(d.I64())
	if err := d.Err(); err != nil {
		return asyncTask{}, fmt.Errorf("dataplane: unmarshal async task: %w", err)
	}
	return t, nil
}

// persistAsync durably records an accepted async invocation under its
// shard's store hash, filling in the task's store coordinates (no-ops
// when persistence is disabled).
func (dp *DataPlane) persistAsync(sh *asyncShard, t *asyncTask) error {
	if dp.cfg.AsyncStore == nil {
		return nil
	}
	if !sh.indexed.Load() {
		if err := dp.cfg.AsyncStore.HSet(asyncIndexHash, sh.hash, []byte{1}); err != nil {
			return err
		}
		sh.indexed.Store(true)
	}
	key := core.AsyncTaskKey(dp.cfg.ID, asyncSeq.Add(1))
	if err := dp.cfg.AsyncStore.HSet(sh.hash, key, marshalAsyncTask(*t)); err != nil {
		return err
	}
	t.storeKey = key
	t.storeHash = sh.hash
	return nil
}

// observeAsyncKey raises the key-sequence high-water mark past a
// recovered record's key, so keys minted after a restart can never
// collide with (and overwrite, or cross-settle) a recovered task's
// still-unsettled record.
func observeAsyncKey(key string) {
	seq := asyncKeySeq(key)
	for {
		cur := asyncSeq.Load()
		if seq <= cur || asyncSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// asyncKeySeq parses the sequence after a key's last dash, 0 if there is
// none.
func asyncKeySeq(key string) uint64 {
	dash := -1
	for i := 0; i < len(key); i++ {
		if key[i] == '-' {
			dash = i
		}
	}
	if dash < 0 || dash+1 >= len(key) {
		return 0
	}
	var seq uint64
	for _, c := range key[dash+1:] {
		if c < '0' || c > '9' {
			return 0
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq
}

// observeAsyncKeys scans every durable record before the listener opens:
// fresh keys must never collide with a surviving record's key, including
// records owned by other replicas sharing the store — a collision would
// overwrite (or cross-settle) whichever task loses the race, silently
// dropping an acknowledged invocation on the next crash. It returns the
// high-water mark it leaves, above which lies every key this incarnation
// mints.
func (dp *DataPlane) observeAsyncKeys() uint64 {
	if dp.cfg.AsyncStore != nil {
		for _, hash := range dp.asyncStoreHashes() {
			for key := range dp.cfg.AsyncStore.HGetAll(hash) {
				observeAsyncKey(key)
			}
		}
	}
	return asyncSeq.Load()
}

// settleAsync removes a completed (or permanently failed) task from the
// durable queue. Every settlement is fenced by the epoch of whoever owns
// the record right now: the replica's own queue epoch for tasks it
// accepted, the lease epoch for tasks drained on behalf of a dead owner.
// A fence rejection means a newer epoch took the records over — a lessee
// abandons the lease; an owner parks the settle until it adopts its
// revival epoch (the task ran, so it must not be re-dispatched here, but
// the record may only be deleted once this replica out-fences the lease).
func (dp *DataPlane) settleAsync(t *asyncTask) {
	if t.storeKey == "" || dp.cfg.AsyncStore == nil {
		return
	}
	owner, epoch := dp.cfg.ID, dp.queueEpoch.Load()
	if t.leased {
		owner, epoch = t.leaseOwner, t.leaseEpoch
	}
	err := dp.cfg.AsyncStore.HDelFenced(t.storeHash, t.storeKey, asyncFenceHash, asyncFenceField(owner), epoch)
	switch {
	case err == nil:
		if t.leased {
			dp.forgetLeasedKey(t.storeHash, t.storeKey)
		}
	case errors.Is(err, store.ErrFenced):
		dp.mAsync.settleFenced.Inc()
		if t.leased {
			// The lease may have been re-granted to this same replica at
			// a higher epoch while the task executed (a co-lessee died
			// and the sweep re-minted the owner's lease). This replica is
			// still the legitimate lessee, so retry at the upgraded epoch
			// — abandoning here would strand a record the re-grant's
			// rescan already skipped as queued.
			if e, ok := dp.currentLeaseEpoch(t.leaseOwner); ok && e > t.leaseEpoch {
				t.leaseEpoch = e
				dp.mAsync.settleUpgraded.Inc()
				dp.settleAsync(t)
				return
			}
			dp.abandonLease(t.leaseOwner, t.leaseEpoch)
			dp.forgetLeasedKey(t.storeHash, t.storeKey)
		} else {
			dp.parkSettle(t.storeHash, t.storeKey)
		}
	default:
		dp.mAsync.settleErrors.Inc()
	}
}

// asyncStoreHashes returns every store hash replay must scan: each
// shard's hash, the legacy unsharded hash, and every hash the store's
// index says has ever held a record — so records written by a binary
// with any other shard count (up or down) still replay. Scanning an
// empty hash costs nothing, while
// missing one would strand acknowledged tasks. Each recovered task
// keeps its original store coordinates for settlement, wherever it was
// found.
func (dp *DataPlane) asyncStoreHashes() []string {
	seen := map[string]bool{asyncQueueHash: true}
	hashes := []string{asyncQueueHash}
	add := func(h string) {
		if !seen[h] {
			seen[h] = true
			hashes = append(hashes, h)
		}
	}
	for _, sh := range dp.asyncShards {
		add(sh.hash)
	}
	if dp.cfg.AsyncStore != nil {
		for h := range dp.cfg.AsyncStore.HGetAll(asyncIndexHash) {
			add(h)
		}
	}
	return hashes
}

// recoverAsync re-enqueues tasks that were durably accepted but not yet
// settled when the previous replica incarnation crashed. Each task is
// routed to the shard that owns its function under the current
// configuration, regardless of which hash it was persisted under. It
// runs as a background goroutine after the listener opens, admitting
// with backpressure: a recovery backlog larger than the shard buffers
// drains as dispatch frees space instead of overflowing — every
// acknowledged task is dispatched in this incarnation, not the next one.
// Records this incarnation accepted (own keys above minted, the mark
// observeAsyncKeys left) are skipped: their tasks are already queued in
// memory, and replaying them would queue them twice.
//
// In a store shared by several replicas, only records this replica owns
// (key prefix "<own id>-") are recovered: live co-owners drain their
// own, and a dead co-owner's are the lease manager's to reassign. Keys
// in any other shape (hand-seeded or pre-owner-format records) have no
// other owner to claim them, so they recover here.
func (dp *DataPlane) recoverAsync(minted uint64) {
	defer dp.wg.Done()
	if dp.cfg.AsyncStore == nil {
		return
	}
	for _, hash := range dp.asyncStoreHashes() {
		for key, raw := range dp.cfg.AsyncStore.HGetAll(hash) {
			if dp.stopped.Load() {
				return
			}
			if owner, ok := core.AsyncTaskOwner(key); ok && (owner != dp.cfg.ID || asyncKeySeq(key) > minted) {
				continue
			}
			task, err := unmarshalAsyncTask(raw)
			if err != nil {
				// Unreadable record: drop it rather than crash-loop.
				dp.cfg.AsyncStore.HDel(hash, key)
				dp.mAsync.recoverCorrupt.Inc()
				continue
			}
			task.storeKey = key
			task.storeHash = hash
			task.attempt = 0 // restart the retry budget after recovery
			if !dp.asyncShardFor(task.function).admitBlocking(task) {
				return
			}
			dp.mAsync.recovered.Inc()
		}
	}
}

// PendingAsync reports the number of queued async invocations: durable
// records across every shard hash when persistence is on, buffered
// queue depth otherwise. With a store shared across replicas this counts
// the whole tier's records, not just this replica's.
func (dp *DataPlane) PendingAsync() int {
	if dp.cfg.AsyncStore == nil {
		n := 0
		for _, sh := range dp.asyncShards {
			n += sh.pending()
		}
		return n
	}
	n := 0
	for _, hash := range dp.asyncStoreHashes() {
		n += dp.cfg.AsyncStore.HLen(hash)
	}
	return n
}

// AsyncBacklog counts the durable async records remaining in st — the
// legacy hash plus every hash the index lists. For a store shared by a DP
// tier this is the tier-wide ground truth ("zero stranded" means zero
// here), where summing PendingAsync over replicas would multiply-count
// the shared hashes.
func AsyncBacklog(st *store.Store) int {
	if st == nil {
		return 0
	}
	n := st.HLen(asyncQueueHash)
	for h := range st.HGetAll(asyncIndexHash) {
		if h != asyncQueueHash {
			n += st.HLen(h)
		}
	}
	return n
}
