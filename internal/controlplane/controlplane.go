// Package controlplane implements Dirigent's monolithic control plane
// (paper §3). One process hosts the state manager, health monitor,
// autoscaler, and placer, exchanging information through in-memory
// structures instead of RPCs between microservices (design principle 3).
//
// The state manager is sharded: function state lives in a striped map
// (one lock per shard, see shards.go), the worker registry in its own
// striped map (one RWMutex per shard, see workers.go) with per-worker
// mutation locks, the small data-plane set behind a separate RWMutex,
// and cluster-wide scalars (leadership, epoch, sandbox IDs) in atomics.
// Sandbox transitions, heartbeats, registrations, scaling metrics and
// endpoint broadcasts for unrelated functions or workers therefore never
// contend on a global lock — the property that lets sandbox-creation
// throughput scale with cores (paper §5.2.1) and the worker fleet scale
// to thousands of nodes (paper §5.2.3 runs 5000) instead of serializing
// behind one mutex.
//
// The control plane persists only the state required to recover from a
// failure — Function registrations, DataPlane and WorkerNode records
// (paper Table 3) — and keeps Sandbox state purely in memory (design
// principle 2): after a failover the new leader reconstructs sandbox state
// asynchronously from worker-node reports and suppresses downscaling for
// one autoscaling window while metrics repopulate (§3.4.1).
package controlplane

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/autoscaler"
	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/placement"
	"dirigent/internal/predictor"
	"dirigent/internal/proto"
	"dirigent/internal/raft"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// DB is the persistence interface the control plane requires; both
// store.Store and store.Replicated satisfy it.
type DB interface {
	HSet(hash, field string, value []byte) error
	HDel(hash, field string) error
	HGetAll(hash string) map[string][]byte
}

// Persistence hash names.
const (
	hashFunctions  = "functions"
	hashWorkers    = "workers"
	hashDataPlanes = "dataplanes"
	hashSandboxes  = "sandboxes" // used only by the persist-all ablation
	hashMeta       = "meta"      // cluster metadata: leadership epoch
	fieldEpoch     = "epoch"
	// hashDPAsync persists each durable data plane's advertised async
	// queue hashes, so a control plane that failed over can still lease
	// a dead replica's shards to survivors.
	hashDPAsync = "dataplane-async"
	// fieldAsyncEpoch is the cluster-wide async queue epoch counter
	// (hashMeta field): monotonic across CP failovers, so every lease
	// grant and every revival outranks all earlier ones.
	fieldAsyncEpoch = "async-epoch"
)

// Config parameterizes a control plane replica.
type Config struct {
	// Addr is this replica's RPC address; with HA it must appear in Peers.
	Addr string
	// Peers lists all control plane replica addresses (including Addr).
	// Empty or singleton means single-node mode without leader election.
	Peers []string
	// Transport carries all RPCs.
	Transport transport.Transport
	// DB is the replicated persistent store. Open it with
	// wal.FsyncGroup to group-commit the control plane's durable writes,
	// or wal.FsyncAlways for the paper's fsync-per-mutation baseline.
	DB DB
	// Clock abstracts time.
	Clock clock.Clock
	// StateShards is the number of locks striping the function state
	// map. 0 selects the default (32); 1 degenerates to the seed's
	// single global lock and exists for the sharding ablation.
	StateShards int
	// WorkerShards is the number of locks striping the worker registry.
	// 0 selects the default (32); 1 degenerates to the seed's single
	// registry lock and exists for the fleet-scale ablation
	// (`dirigent-cp -worker-shards 1`).
	WorkerShards int
	// AutoscaleInterval is the period of the asynchronous autoscaling
	// loop (Knative ticks every 2 s; tests compress this).
	AutoscaleInterval time.Duration
	// HeartbeatTimeout is how long without a worker heartbeat before the
	// health monitor declares the worker failed.
	HeartbeatTimeout time.Duration
	// RelayTimeout is how long without a batch from a relay before the
	// health monitor declares the relay silent and re-verifies its
	// workers' CP-side stamps individually (a silent relay is a
	// correlated mass-timeout candidate, not automatically a mass
	// failure — workers that failed over to another relay or to direct
	// mode have fresh stamps and survive). 0 selects HeartbeatTimeout.
	RelayTimeout time.Duration
	// DeadWorkerGC is how long a crash-failed worker's registry entry
	// lingers before being garbage-collected (entry and persisted record
	// both removed, counted by dead_worker_gc). A late heartbeat within
	// the window still revives the worker. 0 selects the default
	// (10 × HeartbeatTimeout); negative disables collection.
	DeadWorkerGC time.Duration
	// FullScanEvery makes every N-th health sweep a full registry scan
	// when relays are active. In-between sweeps are fast passes that only
	// check relay freshness and relay-reported suspects — at 5000 workers
	// the full scan is the dominant sweep cost, and with relays vouching
	// for their members it only needs to run as the periodic ground
	// truth. 0 selects the default (4); 1 forces every sweep full (and
	// direct mode always scans fully regardless).
	FullScanEvery int
	// DataPlaneTimeout is how long without a data plane heartbeat before
	// the health monitor prunes the replica from the broadcast fan-out
	// set (and from the live set the front end polls). Data planes
	// heartbeat on a slower period than workers and a spurious prune
	// costs a cache re-warm, so the default is more lenient:
	// 3 × HeartbeatTimeout.
	DataPlaneTimeout time.Duration
	// NoDownscaleWindow suppresses downscaling after a failover while
	// autoscaling metrics repopulate (60 s in the paper, §3.4.1).
	NoDownscaleWindow time.Duration
	// AsyncLeaseDisabled turns off durable async queue lease failover
	// (the seed ablation): a pruned replica's persisted async tasks then
	// wait for that exact replica to restart with its store, and no
	// queue epochs are assigned.
	AsyncLeaseDisabled bool
	// PersistSandboxState enables the paper's ablation (§5.2.1,
	// "Dirigent optimization breakdown"): persist every sandbox state
	// change, putting a durable write on the cold-start critical path.
	PersistSandboxState bool
	// Placer selects worker nodes for new sandboxes; nil selects the
	// K8s-default policy. placement.NewCacheAware steers cold starts to
	// nodes whose heartbeat-reported cache digest already holds the
	// image; the default stays locality-blind (the seed-parity ablation).
	Placer placement.Policy
	// PredictivePrewarm turns the workers' static pre-warm pools into
	// demand-driven ones: the reconciler feeds every staged creation into
	// the per-image demand predictor and pushes per-image pool targets to
	// workers, piggybacked on the autoscale sweep (one PrewarmTargets RPC
	// per worker, only when its acknowledged generation is stale). Off
	// (the default) keeps the seed's static base-image pools exactly.
	PredictivePrewarm bool
	// Predictor tunes the demand estimator when PredictivePrewarm is on;
	// zero fields select predictor defaults (1-minute windows, 20 s
	// lead). Experiments that compress wall time scale Window and Lead by
	// the same factor as the trace timestamps.
	Predictor predictor.Config
	// Metrics receives control plane telemetry.
	Metrics *telemetry.Registry
	// RaftHeartbeat / RaftElectionMin / RaftElectionMax tune leader
	// election; zero values select defaults calibrated for ~10 ms
	// failover.
	RaftHeartbeat   time.Duration
	RaftElectionMin time.Duration
	RaftElectionMax time.Duration
	// LocalStore, set together with multiple Peers, selects the
	// replicated-log HA regime: every durable write is proposed to the
	// Raft log and each replica applies committed batches to this, its
	// own store (DB is then managed internally and must be left nil). A
	// promoted follower recovers from its own applied state — no shared
	// store, no cold replay. With a single peer, LocalStore simply backs
	// DB directly (seed-exact single-node behavior).
	LocalStore *store.Store
	// FollowerReads lets non-leader replicas serve read-only RPCs
	// (ListDataPlanes, ListFunctions) from their applied store while
	// their leader lease is fresh, offloading the read fan-in from the
	// leader. Requires the replicated-log regime.
	FollowerReads bool
	// ReadLease bounds follower-read staleness (how recently a follower
	// must have heard from the leader to vouch for its state); 0 selects
	// the Raft election-timeout minimum.
	ReadLease time.Duration
	// RaftRejoin marks a replica restarting into an established group
	// after a crash: having lost its log and vote state, it withholds
	// votes (and campaigns) until it catches up to the leader's commit
	// index, so its amnesia cannot help elect a leader that misses
	// committed writes. Leave false on first boot.
	RaftRejoin bool
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.StateShards <= 0 {
		c.StateShards = defaultStateShards
	}
	if c.WorkerShards <= 0 {
		c.WorkerShards = defaultWorkerShards
	}
	if c.AutoscaleInterval == 0 {
		c.AutoscaleInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = time.Second
	}
	if c.DataPlaneTimeout == 0 {
		c.DataPlaneTimeout = 3 * c.HeartbeatTimeout
	}
	if c.RelayTimeout == 0 {
		c.RelayTimeout = c.HeartbeatTimeout
	}
	if c.DeadWorkerGC == 0 {
		c.DeadWorkerGC = 10 * c.HeartbeatTimeout
	}
	if c.FullScanEvery <= 0 {
		c.FullScanEvery = 4
	}
	if c.NoDownscaleWindow == 0 {
		c.NoDownscaleWindow = 60 * time.Second
	}
	if c.Placer == nil {
		c.Placer = placement.NewKubeDefault(1)
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	return c
}

type sandboxPhase uint8

const (
	phaseCreating sandboxPhase = iota
	phaseReady
)

type sandboxState struct {
	id         core.SandboxID
	function   string
	node       core.NodeID
	workerAddr string
	phase      sandboxPhase
	createdAt  time.Time
}

// functionState is all per-function control plane state. It is guarded by
// the lock of the shard the function hashes to.
type functionState struct {
	fn     core.Function
	scaler *autoscaler.FunctionAutoscaler
	// demand is what each data plane last reported for this function (in
	// flight plus queued); the scaler is fed the sum, the front end being
	// free to steer a function to any of them. A replica's entry goes
	// when the sweep fails it or it deregisters, and returns with its
	// next report.
	demand    []dpDemand
	sandboxes map[core.SandboxID]*sandboxState
	// epSeq numbers this function's endpoint broadcasts so that data
	// planes can discard reordered updates. Combined with the leadership
	// epoch into the update's Version. Sequencing is per function, so
	// broadcasts for unrelated functions never contend.
	epSeq uint64
	// placing counts creations scaleStep has decided on that placeSandbox
	// has not yet turned into phaseCreating sandboxes (or given up on).
	placing int
	// triggered is set when the scaling-metric handler has run scaleStep
	// for this function and cleared by every sweep: at most one inline
	// scale-from-zero attempt per function between two ticks, so a
	// function that cannot be placed does not turn every report into a
	// walk of the worker registry.
	triggered bool
}

func newFunctionState(fn core.Function) *functionState {
	return &functionState{
		fn:        fn,
		scaler:    autoscaler.New(fn.Scaling),
		sandboxes: make(map[core.SandboxID]*sandboxState),
	}
}

type dpDemand struct {
	dp     core.DataPlaneID
	demand int
}

// setDemand stores one data plane's latest report and returns the sum
// over all of them.
func (fs *functionState) setDemand(dp core.DataPlaneID, demand int) (sum int) {
	i := slices.IndexFunc(fs.demand, func(d dpDemand) bool { return d.dp == dp })
	if i < 0 {
		i, fs.demand = len(fs.demand), append(fs.demand, dpDemand{dp: dp})
	}
	fs.demand[i].demand = demand
	for _, d := range fs.demand {
		sum += d.demand
	}
	return sum
}

// dropDemand forgets, for every function, what the given data planes last
// reported: a replica that is gone must not stay in the sums.
func (cp *ControlPlane) dropDemand(gone ...core.DataPlaneID) {
	cp.forEachShard(func(sh *functionShard) {
		for _, fs := range sh.fns {
			fs.demand = slices.DeleteFunc(fs.demand, func(d dpDemand) bool { return slices.Contains(gone, d.dp) })
		}
	})
}

func (fs *functionState) counts() (ready, creating int) {
	for _, sb := range fs.sandboxes {
		if sb.phase == phaseReady {
			ready++
		} else {
			creating++
		}
	}
	return ready, creating
}

// workerState is one worker's registry entry. node and addr are immutable
// after registration; the mutable health/utilization fields are guarded
// by mu so concurrent heartbeats from different workers never contend.
type workerState struct {
	node core.WorkerNode
	addr string

	mu      sync.Mutex
	util    core.NodeUtilization
	lastHB  time.Time
	healthy bool
	// via is the relay whose batch last carried this worker's sample
	// ("" = direct heartbeat). lastHB is always the CP-side arrival time
	// of that heartbeat or batch — never a relay-side timestamp.
	via string
	// failedAt is when the health monitor failed the worker (zero while
	// healthy); crash-failed entries are garbage-collected once it is
	// older than Config.DeadWorkerGC.
	failedAt time.Time
	// prewarmGen is the generation of the last pre-warm target push this
	// worker acknowledged. Re-registration replaces the entry wholesale,
	// resetting it to zero — so a worker daemon that restarted mid-push
	// (losing its in-memory targets) is re-pushed on the next sweep.
	prewarmGen uint64
}

// ControlPlane is one control plane replica.
type ControlPlane struct {
	cfg     Config
	clk     clock.Clock
	metrics *telemetry.Registry

	raftNode *raft.Node // nil in single-node mode
	listener transport.Listener

	// Function state, striped across shards (see shards.go).
	shards []*functionShard

	// Worker registry, striped across shards (see workers.go);
	// per-worker mutable state is guarded by workerState.mu.
	// workerCount tracks registered entries for the fleet_size gauge.
	wshards     []*workerShard
	workerCount atomic.Int64

	// Relay tier tracking (see relays.go). The relay set is small (tens
	// of relays front thousands of workers), so one mutex suffices; it is
	// never held while touching worker shards. suspects accumulates
	// relay-reported missing workers for the fast health sweeps; sweepSeq
	// schedules the periodic full scans.
	relayMu  sync.Mutex
	relays   map[string]*relayState
	suspects map[core.NodeID]struct{}
	sweepSeq atomic.Uint64

	// Data plane registry (see dataplanes.go). The set is small (a
	// handful of replicas), so one RWMutex suffices; it is never taken on
	// worker paths. Per-replica liveness is guarded by each entry's own
	// mutex, mirroring workerState.
	dpMu       sync.RWMutex
	dataplanes map[core.DataPlaneID]*dataPlaneState

	// Async queue lease state (see asynclease.go): outstanding leases on
	// dead durable replicas' queue hashes, keyed by the dead owner.
	// asyncLeaseMu also serializes async epoch minting, so a revival
	// racing a sweep's lease issuance always ends with the revived owner
	// holding the higher epoch.
	asyncLeaseMu sync.Mutex
	asyncLeases  map[core.DataPlaneID]*asyncLeaseState

	// Predictive pre-warm state (pred is nil unless enabled). The current
	// target set and its generation are recomputed after each reconcile
	// sweep under prewarmMu; workers are pushed asynchronously when their
	// acknowledged generation is stale.
	pred       *predictor.Predictor
	prewarmMu  sync.Mutex
	prewarmGen uint64
	prewarmSet []proto.PrewarmTarget

	// Cluster-wide scalars, off any lock.
	nextSandboxID atomic.Uint64
	epoch         atomic.Uint64
	leader        atomic.Bool
	recoveredAt   atomic.Pointer[time.Time] // when this replica last became leader

	lifeMu  sync.Mutex // guards stopped and leadership transitions
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	// Hot-path metric handles, resolved once so sandbox transitions skip
	// the registry's name-lookup lock.
	mSandboxReady    *telemetry.Histogram
	mShardWait       *telemetry.Histogram
	mShardContended  *telemetry.Counter
	mSchedLatency    *telemetry.Histogram
	mCreateBatch     *telemetry.Histogram
	mKillBatch       *telemetry.Histogram
	mEndpointFanout  *telemetry.Histogram
	mRegWait         *telemetry.Histogram
	mRegContended    *telemetry.Counter
	mHealthSweep     *telemetry.Histogram
	gFleetSize       *telemetry.Gauge
	mIngestWait      *telemetry.Histogram
	mIngestContended *telemetry.Counter
	mHBBatchSize     *telemetry.Histogram
	mRegBatchSize    *telemetry.Histogram
	gRelayCount      *telemetry.Gauge
	cHBRPCs          *telemetry.Counter
	cHBBatchRPCs     *telemetry.Counter
	cDeadWorkerGC    *telemetry.Counter
	cRelayFailures   *telemetry.Counter
	cReadLeader      *telemetry.Counter
	cReadFollower    *telemetry.Counter

	cCreationsRequested *telemetry.Counter
	cPlacementFailures  *telemetry.Counter
	cCreateRPCErrors    *telemetry.Counter
	cTeardowns          *telemetry.Counter
}

// New creates a control plane replica; call Start to serve.
func New(cfg Config) *ControlPlane {
	cfg = cfg.withDefaults()
	cp := &ControlPlane{
		cfg:         cfg,
		clk:         cfg.Clock,
		metrics:     cfg.Metrics,
		shards:      newShards(cfg.StateShards),
		wshards:     newWorkerShards(cfg.WorkerShards),
		dataplanes:  make(map[core.DataPlaneID]*dataPlaneState),
		asyncLeases: make(map[core.DataPlaneID]*asyncLeaseState),
		relays:      make(map[string]*relayState),
		suspects:    make(map[core.NodeID]struct{}),
		stopCh:      make(chan struct{}),
	}
	if cfg.PredictivePrewarm {
		cp.pred = predictor.New(cfg.Predictor)
	}
	cp.mSandboxReady = cp.metrics.Histogram("sandbox_ready_ms")
	cp.mShardWait = cp.metrics.Histogram("shard_lock_wait_ms")
	cp.mShardContended = cp.metrics.Counter("shard_lock_contended")
	cp.mSchedLatency = cp.metrics.Histogram("cold_start_sched_ms")
	cp.mCreateBatch = cp.metrics.CountHistogram("create_batch_size")
	cp.mKillBatch = cp.metrics.CountHistogram("kill_batch_size")
	cp.mEndpointFanout = cp.metrics.CountHistogram("endpoint_fanout_batch_size")
	cp.mRegWait = cp.metrics.Histogram("reg_lock_wait_ms")
	cp.mRegContended = cp.metrics.Counter("reg_lock_contended")
	cp.mHealthSweep = cp.metrics.Histogram("health_sweep_ms")
	cp.gFleetSize = cp.metrics.Gauge("fleet_size")
	cp.mIngestWait = cp.metrics.Histogram("ingest_lock_wait_ms")
	cp.mIngestContended = cp.metrics.Counter("ingest_lock_contended")
	cp.mHBBatchSize = cp.metrics.CountHistogram("heartbeat_batch_size")
	cp.mRegBatchSize = cp.metrics.CountHistogram("register_batch_size")
	cp.gRelayCount = cp.metrics.Gauge("relay_count")
	cp.cHBRPCs = cp.metrics.Counter("worker_hb_rpcs")
	cp.cHBBatchRPCs = cp.metrics.Counter("worker_hb_batch_rpcs")
	cp.cDeadWorkerGC = cp.metrics.Counter("dead_worker_gc")
	cp.cRelayFailures = cp.metrics.Counter("relay_failures_detected")
	cp.cReadLeader = cp.metrics.Counter("cp_read_leader_served")
	cp.cReadFollower = cp.metrics.Counter("cp_read_follower_served")
	cp.cCreationsRequested = cp.metrics.Counter("sandbox_creations_requested")
	cp.cPlacementFailures = cp.metrics.Counter("placement_failures")
	cp.cCreateRPCErrors = cp.metrics.Counter("sandbox_create_rpc_errors")
	cp.cTeardowns = cp.metrics.Counter("sandbox_teardowns")
	return cp
}

// Start begins serving RPCs and, in HA mode, participating in leader
// election. In single-node mode the replica becomes leader immediately.
func (cp *ControlPlane) Start() error {
	if len(cp.cfg.Peers) > 1 {
		rc := raft.Config{
			ID:                 cp.cfg.Addr,
			Peers:              cp.cfg.Peers,
			Transport:          cp.cfg.Transport,
			HeartbeatInterval:  cp.cfg.RaftHeartbeat,
			ElectionTimeoutMin: cp.cfg.RaftElectionMin,
			ElectionTimeoutMax: cp.cfg.RaftElectionMax,
			OnLeaderChange:     cp.onLeaderChange,
			Clock:              cp.clk,
			Rejoin:             cp.cfg.RaftRejoin,
		}
		if cp.cfg.LocalStore != nil {
			// Replicated-log regime: durable writes go through the Raft
			// log; this replica's store holds the applied state.
			rc.Apply = cp.applyReplicated
			rc.ReadLease = cp.cfg.ReadLease
			cp.cfg.DB = &replicatedDB{cp: cp}
		}
		cp.raftNode = raft.NewNode(rc)
	} else if cp.cfg.DB == nil && cp.cfg.LocalStore != nil {
		cp.cfg.DB = cp.cfg.LocalStore
	}
	ln, err := cp.cfg.Transport.Listen(cp.cfg.Addr, cp.handleRPC)
	if err != nil {
		return fmt.Errorf("control plane %s: %w", cp.cfg.Addr, err)
	}
	cp.listener = ln
	if cp.raftNode != nil {
		cp.raftNode.Start()
	} else {
		cp.onLeaderChange(true, 1)
	}
	cp.wg.Add(2)
	go cp.autoscaleLoop()
	go cp.healthLoop()
	return nil
}

// Stop simulates a control plane crash: RPCs stop being served and the
// replica leaves the Raft group without notice.
func (cp *ControlPlane) Stop() {
	cp.lifeMu.Lock()
	if cp.stopped {
		cp.lifeMu.Unlock()
		return
	}
	cp.stopped = true
	cp.leader.Store(false)
	cp.lifeMu.Unlock()
	close(cp.stopCh)
	if cp.raftNode != nil {
		cp.raftNode.Stop()
	}
	if cp.listener != nil {
		cp.listener.Close()
	}
	cp.wg.Wait()
}

// IsLeader reports whether this replica currently leads.
func (cp *ControlPlane) IsLeader() bool {
	return cp.leader.Load()
}

// Addr returns the replica's RPC address.
func (cp *ControlPlane) Addr() string { return cp.cfg.Addr }

// onLeaderChange runs recovery when this replica gains leadership
// (paper §3.4.1: fetch DataPlane and WorkerNode objects, re-establish
// connections, reload Functions, update data plane caches, then merge
// sandbox reports from workers asynchronously).
func (cp *ControlPlane) onLeaderChange(isLeader bool, _ uint64) {
	cp.lifeMu.Lock()
	if cp.stopped {
		cp.lifeMu.Unlock()
		return
	}
	wasLeader := cp.leader.Load()
	cp.leader.Store(isLeader)
	if !isLeader || wasLeader {
		cp.lifeMu.Unlock()
		return
	}
	now := cp.clk.Now()
	cp.recoveredAt.Store(&now)
	cp.lifeMu.Unlock()
	cp.recover()
}

// nextEpoch durably increments the cluster-wide leadership epoch. The
// epoch forms the high bits of every endpoint-update version, so it must
// be monotonic across leaders — a freshly elected leader whose per-function
// sequences restart from zero must still outrank the old leader's
// broadcasts. The write happens once per leadership change, never on the
// invocation critical path.
func (cp *ControlPlane) nextEpoch() uint64 {
	var prev uint64
	if b, ok := cp.cfg.DB.HGetAll(hashMeta)[fieldEpoch]; ok && len(b) == 8 {
		for i := 0; i < 8; i++ {
			prev |= uint64(b[i]) << (8 * i)
		}
	}
	next := prev + 1
	buf := make([]byte, 8)
	for i := 0; i < 8; i++ {
		buf[i] = byte(next >> (8 * i))
	}
	_ = cp.cfg.DB.HSet(hashMeta, fieldEpoch, buf)
	return next
}

func (cp *ControlPlane) recover() {
	start := cp.clk.Now()
	// In the replicated-log regime, wait until this replica's applied
	// store covers everything the previous leader committed before
	// reading from it (a barrier entry in the new term).
	cp.barrierApplied()
	cp.epoch.Store(cp.nextEpoch())

	// 1. Reload persisted state: functions, workers, data planes.
	cp.forEachShard(func(sh *functionShard) {
		sh.fns = make(map[string]*functionState)
	})
	for _, b := range cp.cfg.DB.HGetAll(hashFunctions) {
		if f, err := core.UnmarshalFunction(b); err == nil {
			sh := cp.shardFor(f.Name)
			cp.lockShard(sh)
			sh.fns[f.Name] = newFunctionState(*f)
			sh.mu.Unlock()
		}
	}
	now := cp.clk.Now()
	workers := cp.rebuildWorkers(func() []*workerState {
		var out []*workerState
		for _, b := range cp.cfg.DB.HGetAll(hashWorkers) {
			if w, err := core.UnmarshalWorkerNode(b); err == nil {
				out = append(out, &workerState{
					node:    *w,
					addr:    workerAddr(w),
					lastHB:  now,
					healthy: true,
				})
			}
		}
		return out
	})
	asyncInfo := cp.cfg.DB.HGetAll(hashDPAsync)
	cp.dpMu.Lock()
	cp.dataplanes = make(map[core.DataPlaneID]*dataPlaneState)
	for _, b := range cp.cfg.DB.HGetAll(hashDataPlanes) {
		if p, err := core.UnmarshalDataPlane(b); err == nil {
			st := &dataPlaneState{
				dp:      *p,
				addr:    dataPlaneAddr(p),
				lastHB:  now,
				healthy: true,
			}
			// Reload the replica's advertised async hashes so a prune
			// after this failover can still lease its durable shards.
			// The queue epoch restarts at 0 — every later mint outranks
			// it (fieldAsyncEpoch is persisted and monotonic).
			st.durable, st.asyncHashes = unmarshalAsyncInfo(asyncInfo[fmt.Sprintf("%d", p.ID)])
			cp.dataplanes[p.ID] = st
		}
	}
	cp.dpMu.Unlock()
	cp.refreshDataPlaneGauge()

	// 2. Refresh data plane caches with the function list.
	cp.broadcastFunctions()

	// 3. Asynchronously merge sandbox lists from workers. The scale of
	// every function starts at zero; worker reports repopulate it
	// (paper §3.4.1).
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		for _, w := range workers {
			select {
			case <-cp.stopCh:
				return
			default:
			}
			cp.mergeWorkerSandboxes(w)
		}
	}()
	cp.metrics.Histogram("recovery_ms").Observe(cp.clk.Since(start))
	cp.metrics.Counter("recoveries").Inc()
}

func workerAddr(w *core.WorkerNode) string {
	return fmt.Sprintf("%s:%d", w.IP, w.Port)
}

// observeSandboxID raises the sandbox ID high-water mark to at least
// id+1, so IDs minted after recovery never collide with merged ones.
func (cp *ControlPlane) observeSandboxID(id core.SandboxID) {
	for {
		cur := cp.nextSandboxID.Load()
		if uint64(id) < cur {
			return
		}
		if cp.nextSandboxID.CompareAndSwap(cur, uint64(id)+1) {
			return
		}
	}
}

func (cp *ControlPlane) mergeWorkerSandboxes(w *workerState) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	respB, err := cp.cfg.Transport.Call(ctx, w.addr, proto.MethodListSandboxes, nil)
	if err != nil {
		return // health monitor will handle a dead worker
	}
	list, err := proto.UnmarshalSandboxList(respB)
	if err != nil {
		return
	}
	touched := make(map[string]bool)
	for _, sb := range list.Sandboxes {
		sb := sb
		merged := cp.withFunction(sb.Function, func(fs *functionState) {
			fs.sandboxes[sb.ID] = &sandboxState{
				id:         sb.ID,
				function:   sb.Function,
				node:       sb.Node,
				workerAddr: sb.Addr,
				phase:      phaseReady,
				createdAt:  cp.clk.Now(),
			}
		})
		if !merged {
			continue // function deregistered while we were down
		}
		cp.observeSandboxID(sb.ID)
		touched[sb.Function] = true
	}
	cp.broadcastEndpointsBatch(sortedKeys(touched))
}

// handleRPC multiplexes Raft election RPCs and the Dirigent API.
func (cp *ControlPlane) handleRPC(method string, payload []byte) ([]byte, error) {
	if cp.raftNode != nil {
		if resp, err, handled := cp.raftNode.HandleRPC(method, payload); handled {
			return resp, err
		}
	}
	if !cp.IsLeader() {
		// Followers can still serve bounded-staleness reads from their
		// applied store; everything else redirects to the leader.
		if resp, err, handled := cp.tryFollowerRead(method); handled {
			return resp, err
		}
		return nil, cp.notLeaderErr()
	}
	switch method {
	case proto.MethodRegisterFunction:
		return cp.handleRegisterFunction(payload)
	case proto.MethodDeregisterFunction:
		return cp.handleDeregisterFunction(payload)
	case proto.MethodRegisterWorker:
		return cp.handleRegisterWorker(payload)
	case proto.MethodDeregisterWorker:
		return cp.handleDeregisterWorker(payload)
	case proto.MethodWorkerHeartbeat:
		return cp.handleWorkerHeartbeat(payload)
	case proto.MethodWorkerHeartbeatBatch:
		return cp.handleWorkerHeartbeatBatch(payload)
	case proto.MethodRegisterWorkerBatch:
		return cp.handleRegisterWorkerBatch(payload)
	case proto.MethodRegisterDataPlane:
		return cp.handleRegisterDataPlane(payload)
	case proto.MethodDeregisterDataPlane:
		return cp.handleDeregisterDataPlane(payload)
	case proto.MethodDataPlaneHeartbeat:
		return cp.handleDataPlaneHeartbeat(payload)
	case proto.MethodListDataPlanes:
		cp.cReadLeader.Inc()
		return cp.handleListDataPlanes()
	case proto.MethodListFunctions:
		cp.cReadLeader.Inc()
		return cp.handleListFunctions()
	case proto.MethodScalingMetric:
		return cp.handleScalingMetric(payload)
	case proto.MethodSandboxReadyBatch:
		return cp.handleSandboxReadyBatch(payload)
	case proto.MethodSandboxCrashed:
		return cp.handleSandboxCrashed(payload)
	case proto.MethodClusterStatus:
		return cp.handleClusterStatus()
	default:
		return nil, fmt.Errorf("control plane: unknown method %q", method)
	}
}

// handleRegisterFunction persists the function spec and propagates the
// metadata to data planes — the entire registration path (paper §5.2.4:
// "registering a function in Dirigent takes 2 ms on average, as it only
// involves persisting function specification into the database and
// propagating metadata to data plane components").
func (cp *ControlPlane) handleRegisterFunction(payload []byte) ([]byte, error) {
	f, err := core.UnmarshalFunction(payload)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := cp.cfg.DB.HSet(hashFunctions, f.Name, core.MarshalFunction(f)); err != nil {
		return nil, fmt.Errorf("register function %s: persist: %w", f.Name, err)
	}
	sh := cp.shardFor(f.Name)
	cp.lockShard(sh)
	if fs, exists := sh.fns[f.Name]; !exists {
		sh.fns[f.Name] = newFunctionState(*f)
	} else {
		fs.fn = *f
	}
	sh.mu.Unlock()
	cp.broadcastFunctions()
	cp.metrics.Counter("functions_registered").Inc()
	return nil, nil
}

func (cp *ControlPlane) handleDeregisterFunction(payload []byte) ([]byte, error) {
	f, err := core.UnmarshalFunction(payload)
	if err != nil {
		return nil, err
	}
	if err := cp.cfg.DB.HDel(hashFunctions, f.Name); err != nil {
		return nil, err
	}
	sh := cp.shardFor(f.Name)
	cp.lockShard(sh)
	fs := sh.fns[f.Name]
	delete(sh.fns, f.Name)
	var kills []*sandboxState
	if fs != nil {
		for _, sb := range fs.sandboxes {
			kills = append(kills, sb)
		}
	}
	sh.mu.Unlock()
	cp.dispatchKills(kills)
	cp.broadcastFunctions()
	cp.broadcastEndpoints(f.Name)
	return nil, nil
}

func (cp *ControlPlane) handleRegisterWorker(payload []byte) ([]byte, error) {
	req, err := proto.UnmarshalRegisterWorkerRequest(payload)
	if err != nil {
		return nil, err
	}
	w := req.Worker
	if err := cp.cfg.DB.HSet(hashWorkers, w.Name, core.MarshalWorkerNode(&w)); err != nil {
		return nil, fmt.Errorf("register worker %s: persist: %w", w.Name, err)
	}
	cp.putWorker(&workerState{
		node:    w,
		addr:    workerAddr(&w),
		lastHB:  cp.clk.Now(),
		healthy: true,
	})
	cp.metrics.Counter("workers_registered").Inc()
	return nil, nil
}

func (cp *ControlPlane) handleDeregisterWorker(payload []byte) ([]byte, error) {
	req, err := proto.UnmarshalRegisterWorkerRequest(payload)
	if err != nil {
		return nil, err
	}
	if err := cp.cfg.DB.HDel(hashWorkers, req.Worker.Name); err != nil {
		return nil, err
	}
	cp.failWorker(req.Worker.ID)
	// Unlike a crash (where the entry lingers unhealthy so a late
	// heartbeat can revive the node), explicit deregistration removes
	// the entry: the node is gone from persistent state, so fleet_size
	// and status must stop counting it. A re-registration racing the
	// removal wins.
	cp.removeWorkerIfUnhealthy(req.Worker.ID)
	return nil, nil
}

// handleWorkerHeartbeat refreshes one worker's liveness and utilization.
// It takes only the owning worker shard's read lock plus that worker's
// own mutex, so a large fleet's heartbeats don't serialize — and never
// touch function shard locks at all.
func (cp *ControlPlane) handleWorkerHeartbeat(payload []byte) ([]byte, error) {
	hb, err := proto.UnmarshalWorkerHeartbeat(payload)
	if err != nil {
		return nil, err
	}
	cp.cHBRPCs.Inc()
	if w := cp.getWorker(hb.Node); w != nil {
		w.mu.Lock()
		w.lastHB = cp.clk.Now()
		w.util = hb.Util
		w.healthy = true
		w.via = ""
		w.failedAt = time.Time{}
		w.mu.Unlock()
	}
	return nil, nil
}

func (cp *ControlPlane) handleRegisterDataPlane(payload []byte) ([]byte, error) {
	req, err := proto.UnmarshalRegisterDataPlaneRequest(payload)
	if err != nil {
		return nil, err
	}
	p := req.DataPlane
	if err := cp.cfg.DB.HSet(hashDataPlanes, fmt.Sprintf("%d", p.ID), core.MarshalDataPlane(&p)); err != nil {
		return nil, fmt.Errorf("register data plane %d: persist: %w", p.ID, err)
	}
	// A re-registration of a replica the health monitor had failed is a
	// revival just like a heartbeat from one (the systemd-restart path):
	// count it so harnesses can assert the sweep saw the replica return.
	if prev := cp.getDataPlane(p.ID); prev != nil {
		prev.mu.Lock()
		wasDead := !prev.healthy
		prev.mu.Unlock()
		if wasDead {
			cp.metrics.Counter("dataplane_revivals").Inc()
		}
	}
	if req.Durable {
		if err := cp.cfg.DB.HSet(hashDPAsync, fmt.Sprintf("%d", p.ID), marshalAsyncInfo(req.Durable, req.AsyncHashes)); err != nil {
			return nil, fmt.Errorf("register data plane %d: persist async info: %w", p.ID, err)
		}
	}
	cp.putDataPlane(p, req.Durable, req.AsyncHashes)
	// A (re-)registering replica is a new incarnation of its queue:
	// revoke any leases still draining its records and assign it a fresh
	// epoch that out-fences them, before re-warming its caches.
	epoch := cp.reviveAsyncOwner(p.ID)
	// Warm the new data plane's caches: functions, then endpoints —
	// every function's endpoint set in one coalesced RPC.
	cp.warmDataPlane(dataPlaneAddr(&p))
	ack := proto.DataPlaneEpochAck{Epoch: epoch}
	return ack.Marshal(), nil
}

func (cp *ControlPlane) handleDeregisterDataPlane(payload []byte) ([]byte, error) {
	req, err := proto.UnmarshalRegisterDataPlaneRequest(payload)
	if err != nil {
		return nil, err
	}
	if err := cp.cfg.DB.HDel(hashDataPlanes, fmt.Sprintf("%d", req.DataPlane.ID)); err != nil {
		return nil, err
	}
	_ = cp.cfg.DB.HDel(hashDPAsync, fmt.Sprintf("%d", req.DataPlane.ID))
	cp.dpMu.Lock()
	delete(cp.dataplanes, req.DataPlane.ID)
	cp.dpMu.Unlock()
	cp.dropDemand(req.DataPlane.ID)
	cp.refreshDataPlaneGauge()
	return nil, nil
}

func (cp *ControlPlane) handleListFunctions() ([]byte, error) {
	list := proto.FunctionList{Functions: cp.snapshotFunctions()}
	return list.Marshal(), nil
}

// handleScalingMetric feeds data plane concurrency reports into the
// per-function autoscalers, each as one observation of the function's
// demand summed over every data plane's latest report, and is the
// scale-from-zero trigger: a reported function that shows demand while
// nothing of it is ready, creating or being placed gets the sweep's own
// scaleStep at once, and its creations have been dispatched by the time
// the call returns — a cold start does not wait for autoscaleLoop's
// tick. Everything else (scale 1→N, scale down, a retry after a failed
// placement) stays with the tick.
//
// The payload is decoded in place and the shard map keyed by the name's
// bytes: every data plane reports every function every period, so a
// report of idle functions must cost no allocation per metric. Only the
// shard of each reported function is locked, one metric at a time.
func (cp *ControlPlane) handleScalingMetric(payload []byte) ([]byte, error) {
	now := cp.clk.Now()
	var actions []scaleAction
	_, err := proto.VisitScalingMetricReport(payload, func(dp core.DataPlaneID, function []byte, inFlight, queueDepth int, _ time.Time) {
		sh := shardOf(cp, function)
		cp.lockShard(sh)
		defer sh.mu.Unlock()
		fs := sh.fns[string(function)]
		if fs == nil {
			return // a metric racing a deregistration
		}
		demand := inFlight + queueDepth
		fs.scaler.Record(now, float64(fs.setDemand(dp, demand)))
		if demand == 0 || fs.triggered || fs.placing > 0 || len(fs.sandboxes) > 0 {
			return
		}
		fs.triggered = true
		if a, ok := fs.scaleStep(now, false); ok {
			actions = append(actions, a)
		}
	})
	if err != nil {
		return nil, err
	}
	cp.applyScale(actions, now)
	return nil, nil
}

// handleSandboxReadyBatch absorbs a worker's coalesced readiness report:
// every transition is applied, then all touched functions share one
// endpoint fan-out instead of broadcasting once per sandbox — the
// broadcast work for an N-sandbox burst drops from N full endpoint lists
// per function to one.
//
// A sandbox that turns up ready for a function no longer registered was
// still being created when the deregistration's kill reached its worker,
// which found nothing to kill. Nobody else tracks it, so it is torn down
// here or it holds its worker's resources forever.
func (cp *ControlPlane) handleSandboxReadyBatch(payload []byte) ([]byte, error) {
	batch, err := proto.UnmarshalSandboxEventBatch(payload)
	if err != nil {
		return nil, err
	}
	touched := make(map[string]bool, len(batch.Events))
	var orphans []*sandboxState
	for i := range batch.Events {
		ev := &batch.Events[i]
		if cp.applySandboxReady(ev) {
			touched[ev.Function] = true
		} else {
			orphans = append(orphans, &sandboxState{id: ev.SandboxID, workerAddr: ev.Addr})
		}
	}
	cp.dispatchKills(orphans)
	cp.broadcastEndpointsBatch(sortedKeys(touched))
	return nil, nil
}

// applySandboxReady marks one sandbox ready in the in-memory state,
// reporting whether the function is still registered. Endpoint fan-out is
// the caller's job so batch arrivals can coalesce it.
func (cp *ControlPlane) applySandboxReady(ev *proto.SandboxEvent) bool {
	ok := cp.withFunction(ev.Function, func(fs *functionState) {
		sb, exists := fs.sandboxes[ev.SandboxID]
		if !exists {
			sb = &sandboxState{
				id:        ev.SandboxID,
				function:  ev.Function,
				node:      ev.Node,
				createdAt: cp.clk.Now(),
			}
			fs.sandboxes[ev.SandboxID] = sb
		}
		sb.phase = phaseReady
		sb.workerAddr = ev.Addr
		cp.mSandboxReady.Observe(cp.clk.Since(sb.createdAt))
	})
	if !ok {
		return false
	}
	if cp.cfg.PersistSandboxState {
		cp.persistSandbox(ev)
	}
	return true
}

func (cp *ControlPlane) handleSandboxCrashed(payload []byte) ([]byte, error) {
	ev, err := proto.UnmarshalSandboxEvent(payload)
	if err != nil {
		return nil, err
	}
	cp.withFunction(ev.Function, func(fs *functionState) {
		delete(fs.sandboxes, ev.SandboxID)
	})
	if cp.cfg.PersistSandboxState {
		_ = cp.cfg.DB.HDel(hashSandboxes, fmt.Sprintf("%d", ev.SandboxID))
	}
	cp.metrics.Counter("sandbox_crashes").Inc()
	cp.broadcastEndpoints(ev.Function)
	return nil, nil
}

func (cp *ControlPlane) handleClusterStatus() ([]byte, error) {
	type fnStatus struct {
		name            string
		ready, creating int
	}
	var fns []fnStatus
	cp.forEachShard(func(sh *functionShard) {
		for name, fs := range sh.fns {
			ready, creating := fs.counts()
			fns = append(fns, fnStatus{name: name, ready: ready, creating: creating})
		}
	})
	sort.Slice(fns, func(i, j int) bool { return fns[i].name < fns[j].name })
	workers := int(cp.workerCount.Load())
	dataplanes, _ := cp.dataPlaneCounts()
	var b []byte
	b = fmt.Appendf(b, "leader=%s epoch=%d functions=%d workers=%d dataplanes=%d\n",
		cp.cfg.Addr, cp.epoch.Load(), len(fns), workers, dataplanes)
	for _, f := range fns {
		b = fmt.Appendf(b, "function %s ready=%d creating=%d\n", f.name, f.ready, f.creating)
	}
	return b, nil
}

func (cp *ControlPlane) functionNames() []string {
	var names []string
	cp.forEachShard(func(sh *functionShard) {
		for name := range sh.fns {
			names = append(names, name)
		}
	})
	sort.Strings(names)
	return names
}

// persistSandbox is only used by the persist-everything ablation. In
// Dirigent proper this write does not exist: removing it from the critical
// path is what lifts peak cold-start throughput from 1000/s to 2500/s
// (paper §5.2.1).
func (cp *ControlPlane) persistSandbox(ev *proto.SandboxEvent) {
	sb := core.Sandbox{ID: ev.SandboxID, Function: ev.Function, Node: ev.Node}
	rec := core.MarshalSandboxRecord(&sb)
	_ = cp.cfg.DB.HSet(hashSandboxes, fmt.Sprintf("%d", ev.SandboxID), rec[:])
}
