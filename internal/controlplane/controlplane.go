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
	"dirigent/internal/proto"
	"dirigent/internal/raft"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// DB is the persistence interface the control plane writes through. A
// singleton writes to its store directly; a replica of a group writes
// through the Raft log (replicatedDB).
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
	// DB is this replica's own store. A singleton writes to it directly;
	// with more than one peer it must be a *store.Store, which holds the
	// state this replica has applied from the Raft log. Open it with
	// wal.FsyncGroup to group-commit durable writes, or wal.FsyncAlways
	// for the paper's fsync-per-mutation baseline.
	DB DB
	// Clock abstracts time.
	Clock clock.Clock
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
	// PersistSandboxState enables the paper's ablation (§5.2.1,
	// "Dirigent optimization breakdown"): persist every sandbox state
	// change, putting a durable write on the cold-start critical path.
	PersistSandboxState bool
	// Placer selects worker nodes for new sandboxes; nil selects the
	// K8s-default policy. placement.NewCacheAware steers cold starts to
	// nodes whose heartbeat-reported cache digest already holds the
	// image; the default stays locality-blind (the seed-parity ablation).
	Placer placement.Policy
	// Metrics receives control plane telemetry.
	Metrics *telemetry.Registry
	// RaftHeartbeat / RaftElectionMin / RaftElectionMax tune leader
	// election; zero values select 10 ms / 60 ms / 120 ms, the in-process
	// timings: a leader off-CPU for a few milliseconds on a loaded host
	// keeps its term, and failover stays well under the failure
	// detector's windows. TCP deployments set wider ones.
	RaftHeartbeat   time.Duration
	RaftElectionMin time.Duration
	RaftElectionMax time.Duration
	// FollowerReads lets non-leader replicas serve read-only RPCs
	// (ListDataPlanes, ListFunctions) from their applied store while
	// their leader lease is fresh, offloading the read fan-in from the
	// leader. Requires more than one peer.
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
	if c.RaftHeartbeat == 0 {
		c.RaftHeartbeat = 10 * time.Millisecond
	}
	if c.RaftElectionMin == 0 {
		c.RaftElectionMin = 60 * time.Millisecond
	}
	if c.RaftElectionMax == 0 {
		c.RaftElectionMax = 120 * time.Millisecond
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
//
// A function is active while it is in its shard's active list, which is
// what the autoscale sweep walks, and idle otherwise. An idle function has
// no demand, no sandboxes and no scaler: scaler, demand and sandboxes are
// nil and quiet is what activate rebuilds the scaler from.
type functionState struct {
	fn     core.Function
	scaler *autoscaler.FunctionAutoscaler
	quiet  autoscaler.Quiet
	// demand is what each data plane last reported for this function (in
	// flight plus queued), kept until it reports a change: data planes
	// leave unchanged functions out of their reports. Every decision
	// (scaleStep) and every reported change feeds the scaler the sum, the
	// front end being free to steer a function to any of them. A replica's
	// entry goes when the sweep fails it or it deregisters, and returns
	// with its next report.
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

// newFunctionState is the state of fn registered (or reloaded) at now:
// idle, and active at once if its MinScale wants sandboxes. Callers hold
// sh's lock and put the state in sh.fns.
func (cp *ControlPlane) newFunctionState(sh *functionShard, fn core.Function, now time.Time) *functionState {
	fs := &functionState{fn: fn, quiet: autoscaler.Quiet{At: now}}
	if fn.Scaling.MinScale > 0 {
		cp.activate(sh, fs, now)
	}
	return fs
}

// active reports whether fs is in its shard's active list.
func (fs *functionState) active() bool { return fs.scaler != nil }

// Scalers and sandbox maps of functions gone idle, for the next functions
// to become active: under cold-start churn a function wakes about as often
// as another goes idle.
var (
	idleScalers   sync.Pool // of *autoscaler.FunctionAutoscaler
	idleSandboxes sync.Pool // of empty map[core.SandboxID]*sandboxState
)

// activate puts fs in sh's active list, unless it is there, with a scaler
// resumed from its quiet: fed a 0 at every AutoscaleInterval since it went
// idle, the samples the sweep would have recorded had it gone on walking
// it. Callers hold sh's lock; sh is fs's shard.
func (cp *ControlPlane) activate(sh *functionShard, fs *functionState, now time.Time) {
	if fs.active() {
		return
	}
	if a, ok := idleScalers.Get().(*autoscaler.FunctionAutoscaler); ok {
		a.Reset(fs.fn.Scaling)
		fs.scaler = a
	} else {
		fs.scaler = autoscaler.New(fs.fn.Scaling)
	}
	fs.scaler.Resume(fs.quiet, cp.cfg.AutoscaleInterval, now)
	fs.quiet = autoscaler.Quiet{}
	if m, ok := idleSandboxes.Get().(map[core.SandboxID]*sandboxState); ok {
		fs.sandboxes = m
	} else {
		fs.sandboxes = make(map[core.SandboxID]*sandboxState)
	}
	sh.active = append(sh.active, fs)
}

// quiesce makes fs idle if it is: no data plane reports demand for it, it
// has no sandboxes and none being placed, its MinScale is 0, and its
// scaler is idle (autoscaler.Quiesce). What it held goes with the scaler;
// the caller takes fs out of the active list. Callers hold fs's shard lock.
func (fs *functionState) quiesce(now time.Time) bool {
	if fs.placing > 0 || len(fs.sandboxes) > 0 || fs.fn.Scaling.MinScale > 0 || fs.totalDemand() > 0 {
		return false
	}
	q, ok := fs.scaler.Quiesce(now)
	if !ok {
		return false
	}
	idleScalers.Put(fs.scaler)
	idleSandboxes.Put(fs.sandboxes)
	fs.scaler, fs.quiet, fs.demand, fs.sandboxes = nil, q, nil, nil
	return true
}

// desired is what fs's scaler wants at now for current sandboxes, without
// recording a sample. An idle function wants none: its resumed scaler
// would hold nothing but zeros, and its MinScale is 0.
func (fs *functionState) desired(now time.Time, current int) int {
	if !fs.active() {
		return 0
	}
	return fs.scaler.Desired(now, current)
}

type dpDemand struct {
	dp     core.DataPlaneID
	demand int
}

// setDemand stores one data plane's latest report and says whether it
// differs from that replica's previous one (none counts as 0, so a first
// report of 0 stores nothing).
func (fs *functionState) setDemand(dp core.DataPlaneID, demand int) (changed bool) {
	i := slices.IndexFunc(fs.demand, func(d dpDemand) bool { return d.dp == dp })
	if i < 0 {
		if demand == 0 {
			return false
		}
		i, fs.demand = len(fs.demand), append(fs.demand, dpDemand{dp: dp})
	}
	changed = fs.demand[i].demand != demand
	fs.demand[i].demand = demand
	return changed
}

// totalDemand is the sum of every data plane's latest report.
func (fs *functionState) totalDemand() (sum int) {
	for _, d := range fs.demand {
		sum += d.demand
	}
	return sum
}

// dropDemand forgets, for every function, what the given data planes last
// reported: a replica that is gone must not stay in the sums. Only active
// functions hold any.
func (cp *ControlPlane) dropDemand(gone ...core.DataPlaneID) {
	cp.forEachShard(func(sh *functionShard) {
		for _, fs := range sh.active {
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
	// out is the worker's sender (senders.go), and creates and kills are
	// what it has yet to send.
	out     outbox
	creates []queuedCreate
	kills   []core.SandboxID
}

// ControlPlane is one control plane replica.
type ControlPlane struct {
	cfg     Config
	clk     clock.Clock
	metrics *telemetry.Registry

	raftNode *raft.Node // nil in single-node mode
	// applied is this replica's store, holding the state applied from the
	// Raft log; nil in single-node mode, where cfg.DB is written directly.
	applied  *store.Store
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

	// fnMu orders function metadata on its way to data planes. It is held
	// from a registry insert or delete (after the persist, never across
	// it) through that delta's fan-out, and every full-list sync takes its
	// snapshot under it, so each data plane sees registrations and
	// deregistrations in registry order without a version field.
	fnMu sync.Mutex

	// Async queue lease state (see asynclease.go): outstanding leases on
	// dead durable replicas' queue hashes, keyed by the dead owner.
	// asyncLeaseMu also serializes async epoch minting, so a revival
	// racing a sweep's lease issuance always ends with the revived owner
	// holding the higher epoch.
	asyncLeaseMu sync.Mutex
	asyncLeases  map[core.DataPlaneID]*asyncLeaseState

	// Cluster-wide scalars, off any lock.
	nextSandboxID atomic.Uint64
	epoch         atomic.Uint64
	leader        atomic.Bool
	recoveredAt   atomic.Pointer[time.Time] // when this replica last became leader
	// recovered is set once recover has reloaded this term's functions,
	// workers and data planes; until then a new leader serves nothing, or
	// a data plane it warms would get the partial function list and drop
	// every function missing from it.
	recovered atomic.Bool

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
	mRecovery           *telemetry.Histogram
	cRecoveries         *telemetry.Counter
}

// New creates a control plane replica; call Start to serve.
func New(cfg Config) *ControlPlane {
	cfg = cfg.withDefaults()
	cp := &ControlPlane{
		cfg:         cfg,
		clk:         cfg.Clock,
		metrics:     cfg.Metrics,
		shards:      newShards(),
		wshards:     newWorkerShards(),
		dataplanes:  make(map[core.DataPlaneID]*dataPlaneState),
		asyncLeases: make(map[core.DataPlaneID]*asyncLeaseState),
		relays:      make(map[string]*relayState),
		suspects:    make(map[core.NodeID]struct{}),
		stopCh:      make(chan struct{}),
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
	cp.mRecovery = cp.metrics.Histogram("recovery_ms")
	cp.cRecoveries = cp.metrics.Counter("recoveries")
	return cp
}

// Start begins serving RPCs and, in HA mode, participating in leader
// election. In single-node mode the replica becomes leader immediately.
// With more than one peer it fails unless Config.DB is a *store.Store.
func (cp *ControlPlane) Start() error {
	if len(cp.cfg.Peers) > 1 {
		applied, ok := cp.cfg.DB.(*store.Store)
		if !ok || applied == nil {
			return fmt.Errorf("control plane %s: %d peers need a *store.Store as DB, got %T", cp.cfg.Addr, len(cp.cfg.Peers), cp.cfg.DB)
		}
		cp.applied = applied
		cp.cfg.DB = &replicatedDB{cp: cp}
		cp.raftNode = raft.NewNode(raft.Config{
			ID:                 cp.cfg.Addr,
			Peers:              cp.cfg.Peers,
			Transport:          cp.cfg.Transport,
			HeartbeatInterval:  cp.cfg.RaftHeartbeat,
			ElectionTimeoutMin: cp.cfg.RaftElectionMin,
			ElectionTimeoutMax: cp.cfg.RaftElectionMax,
			OnLeaderChange:     cp.onLeaderChange,
			Apply:              cp.applyReplicated,
			ReadLease:          cp.cfg.ReadLease,
			Clock:              cp.clk,
			Rejoin:             cp.cfg.RaftRejoin,
		})
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

// IsLeader reports whether this replica currently leads and has reloaded
// the state its term starts from.
func (cp *ControlPlane) IsLeader() bool {
	return cp.leader.Load() && cp.recovered.Load()
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
	if isLeader && !wasLeader {
		cp.recovered.Store(false)
	}
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
	// With more than one peer, wait until this replica's applied
	// store covers everything the previous leader committed before
	// reading from it (a barrier entry in the new term).
	cp.barrierApplied()
	cp.epoch.Store(cp.nextEpoch())

	// 1. Reload persisted state: functions, workers, data planes.
	now := cp.clk.Now()
	cp.forEachShard(func(sh *functionShard) {
		sh.fns = make(map[string]*functionState)
		sh.active = nil
	})
	for _, b := range cp.cfg.DB.HGetAll(hashFunctions) {
		if f, err := core.UnmarshalFunction(b); err == nil {
			sh := cp.shardFor(f.Name)
			cp.lockShard(sh)
			sh.fns[f.Name] = cp.newFunctionState(sh, *f, now)
			sh.mu.Unlock()
		}
	}
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
	for _, st := range cp.dataplanes {
		st.retire()
	}
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
	cp.recovered.Store(true)
	cp.refreshDataPlaneGauge()

	// 2. Refresh data plane caches with the function list. Their
	// endpoints stay until the merge below rebuilds the sandbox state
	// that updates are written from.
	cp.syncFunctions(cp.liveDataPlanes(), false)

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
	cp.mRecovery.Observe(cp.clk.Since(start))
	cp.cRecoveries.Inc()
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
	var touched []string
	for _, sb := range list.Sandboxes {
		sb := sb
		merged := cp.withFunction(sb.Function, func(fs *functionState) {
			cp.activate(cp.shardFor(sb.Function), fs, cp.clk.Now())
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
		touched = append(touched, sb.Function)
	}
	cp.broadcastEndpoints(touched...)
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
// propagating metadata to data plane components"). The metadata is the
// one function: the record persisted, framed as a one-function delta for
// every live data plane, so a registration marshals the function once and
// its cost does not grow with the registry.
func (cp *ControlPlane) handleRegisterFunction(payload []byte) ([]byte, error) {
	f, err := core.UnmarshalFunction(payload)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	rec := core.MarshalFunction(f)
	if err := cp.cfg.DB.HSet(hashFunctions, f.Name, rec); err != nil {
		return nil, fmt.Errorf("register function %s: persist: %w", f.Name, err)
	}
	cp.fnMu.Lock()
	defer cp.fnMu.Unlock()
	sh := cp.shardFor(f.Name)
	cp.lockShard(sh)
	now := cp.clk.Now()
	if fs, exists := sh.fns[f.Name]; !exists {
		sh.fns[f.Name] = cp.newFunctionState(sh, *f, now)
	} else {
		// A re-registration may change how the function scales: the
		// next decision takes the new config, the sweep's walk included.
		fs.fn = *f
		if fs.active() {
			fs.scaler.SetConfig(f.Scaling)
		} else {
			cp.activate(sh, fs, now)
		}
	}
	sh.mu.Unlock()
	reached := cp.sendFunctionMeta(cp.liveDataPlanes(), proto.MethodAddFunction, proto.FunctionDelta(rec))
	// A replica that learns the function only now has dropped any update
	// for it that arrived first, so it is owed the endpoints the function
	// has by now; with none ready, its empty set is already right.
	if ready, _ := cp.FunctionScale(f.Name); ready > 0 {
		for _, st := range reached {
			cp.oweEndpoints(st, []string{f.Name})
		}
	}
	cp.metrics.Counter("functions_registered").Inc()
	return nil, nil
}

// handleDeregisterFunction forgets the function, tells every live data
// plane to drop it, and tears its sandboxes down. No endpoint update
// follows: RemoveFunction has already cleared the data planes' endpoints,
// and an update for a name they no longer know would re-create it.
func (cp *ControlPlane) handleDeregisterFunction(payload []byte) ([]byte, error) {
	f, err := core.UnmarshalFunction(payload)
	if err != nil {
		return nil, err
	}
	if err := cp.cfg.DB.HDel(hashFunctions, f.Name); err != nil {
		return nil, err
	}
	cp.fnMu.Lock()
	sh := cp.shardFor(f.Name)
	cp.lockShard(sh)
	fs := sh.fns[f.Name]
	delete(sh.fns, f.Name)
	var kills []*sandboxState
	if fs != nil {
		sh.active = slices.DeleteFunc(sh.active, func(a *functionState) bool { return a == fs })
		for _, sb := range fs.sandboxes {
			kills = append(kills, sb)
		}
	}
	sh.mu.Unlock()
	cp.sendFunctionMeta(cp.liveDataPlanes(), proto.MethodRemoveFunction, core.MarshalFunction(f))
	cp.fnMu.Unlock()
	cp.dispatchKills(kills)
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
	st := cp.putDataPlane(p, req.Durable, req.AsyncHashes)
	// A (re-)registering replica is a new incarnation of its queue:
	// revoke any leases still draining its records and assign it a fresh
	// epoch that out-fences them, before re-warming its caches.
	epoch := cp.reviveAsyncOwner(p.ID)
	// Warm the new data plane's caches: functions, then every
	// function's endpoint set through its sender.
	cp.warmDataPlane(st)
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
	if st := cp.dataplanes[req.DataPlane.ID]; st != nil {
		st.retire()
	}
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

// handleScalingMetric stores each reported demand as the reporting data
// plane's latest value for the function, which stands until that replica
// reports a change, and is the scale-from-zero trigger: a reported
// function that shows demand while nothing of it is ready, creating or
// being placed gets the sweep's own scaleStep at once, and its creations
// have been dispatched by the time the call returns — a cold start does
// not wait for autoscaleLoop's tick. Everything else (scale 1→N, scale
// down, a retry after a failed placement) stays with the tick. A metric
// that changes the replica's value records the new sum as one autoscaler
// sample, so demand that rises and falls between two decisions still
// reaches the scaler's averages and its scale-to-zero grace; an unchanged
// one records nothing, the decisions sampling the held value (scaleStep).
//
// The payload is decoded in place and the shard map keyed by the name's
// bytes: a data plane's periodic full report names every function, so a
// report of idle functions must cost no allocation per metric. Only the
// shard of each reported function is locked, one metric at a time.
func (cp *ControlPlane) handleScalingMetric(payload []byte) ([]byte, error) {
	now := cp.clk.Now()
	// A cold data plane reports a function or two at a time, so the
	// decisions of most reports fit on the stack.
	var decided [2]scaleAction
	actions := decided[:0]
	_, err := proto.VisitScalingMetricReport(payload, func(dp core.DataPlaneID, function []byte, inFlight, queueDepth int, _ time.Time) {
		sh := shardOf(cp, function)
		cp.lockShard(sh)
		defer sh.mu.Unlock()
		fs := sh.fns[string(function)]
		if fs == nil {
			return // a metric racing a deregistration
		}
		demand := inFlight + queueDepth
		if !fs.active() {
			if demand == 0 {
				return // what an idle function's missing entry says already
			}
			cp.activate(sh, fs, now)
		}
		changed := fs.setDemand(dp, demand)
		if demand == 0 || fs.triggered || fs.placing > 0 || len(fs.sandboxes) > 0 {
			if changed {
				fs.scaler.Record(now, float64(fs.totalDemand()))
			}
			return
		}
		fs.triggered = true // scaleStep records the sample
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
// every transition is applied, then all touched functions are owed to the
// data planes at once, so an N-sandbox burst costs each sender one update
// per function, not N.
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
	touched := make([]string, 0, len(batch.Events))
	var orphans []*sandboxState
	for i := range batch.Events {
		ev := &batch.Events[i]
		if cp.applySandboxReady(ev) {
			touched = append(touched, ev.Function)
		} else {
			orphans = append(orphans, &sandboxState{id: ev.SandboxID, node: ev.Node})
		}
	}
	cp.dispatchKills(orphans)
	cp.broadcastEndpoints(touched...)
	return nil, nil
}

// applySandboxReady marks one sandbox ready in the in-memory state,
// reporting whether the function is still registered. Endpoint fan-out is
// the caller's job so batch arrivals can coalesce it.
func (cp *ControlPlane) applySandboxReady(ev *proto.SandboxEvent) bool {
	ok := cp.withFunction(ev.Function, func(fs *functionState) {
		cp.activate(cp.shardFor(ev.Function), fs, cp.clk.Now())
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

// persistSandbox is only used by the persist-everything ablation. In
// Dirigent proper this write does not exist: removing it from the critical
// path is what lifts peak cold-start throughput from 1000/s to 2500/s
// (paper §5.2.1).
func (cp *ControlPlane) persistSandbox(ev *proto.SandboxEvent) {
	sb := core.Sandbox{ID: ev.SandboxID, Function: ev.Function, Node: ev.Node}
	rec := core.MarshalSandboxRecord(&sb)
	_ = cp.cfg.DB.HSet(hashSandboxes, fmt.Sprintf("%d", ev.SandboxID), rec[:])
}
