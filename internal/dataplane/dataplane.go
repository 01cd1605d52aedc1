// Package dataplane implements Dirigent's monolithic data plane (paper
// §3.1–3.3). One process performs everything Knative spreads across the
// activator, per-pod queue-proxy sidecars, and the ingress gateway:
//
//   - reverse proxying of invocations to worker nodes,
//   - per-function request queues that buffer cold-start invocations until
//     a sandbox becomes available,
//   - concurrency throttling, limiting the requests each sandbox processes
//     in parallel,
//   - load balancing across a function's ready sandboxes,
//   - periodic reporting of scaling metrics to the control plane, and
//   - an asynchronous invocation queue with at-least-once retry semantics.
//
// Buffering requests in the data plane instead of per-sandbox sidecars is
// what removes sidecar creation from the cold-start critical path
// (paper §5.2.1, "Cold start latency breakdown").
//
// The request path is sharded, not globally locked: functions resolve
// through a striped copy-on-write registry, each function's cold-start
// queue sits behind its own mutex, and warm starts pick from an immutable
// per-function endpoint snapshot with CAS-based concurrency slots — no
// lock and no allocation on the steady-state warm path.
package dataplane

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/loadbalancer"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// Config parameterizes a data plane replica.
type Config struct {
	// ID identifies this replica.
	ID core.DataPlaneID
	// Addr is the replica's RPC address.
	Addr string
	// Transport carries RPCs.
	Transport transport.Transport
	// ControlPlanes lists the CP replica addresses.
	ControlPlanes []string
	// Clock abstracts time.
	Clock clock.Clock
	// Balancer picks sandboxes for invocations; nil selects least-loaded.
	Balancer loadbalancer.Policy
	// MetricInterval is the period of scaling-metric reports to the CP.
	MetricInterval time.Duration
	// HeartbeatInterval is the period of DP → CP liveness heartbeats;
	// the control plane prunes replicas whose heartbeats stop from its
	// broadcast fan-out set and from the live set the front end polls.
	HeartbeatInterval time.Duration
	// QueueTimeout bounds how long a cold-start invocation may wait in
	// the request queue before failing.
	QueueTimeout time.Duration
	// AsyncRetries is the maximum retry count for asynchronous
	// invocations (at-least-once, paper §3.4.2).
	AsyncRetries int
	// AsyncStore, when non-nil, durably persists accepted asynchronous
	// invocations so they survive data plane crashes (the "persistent
	// queue" of paper §3.4.2). Nil keeps the queue in memory only.
	AsyncStore *store.Store
	// AsyncShards is the number of stripes in the asynchronous queue:
	// per-shard pending channels keyed by function hash, per-shard
	// dispatch loops, and per-shard store hashes, so async acceptance,
	// dispatch, persistence and crash replay scale with the shard count.
	// 0 selects the default (32). 1 is the seed single-queue ablation:
	// one channel, one dispatch loop, and the seed's exact store hash.
	AsyncShards int
	// AsyncFnQuota caps how many pending async tasks a single function
	// may hold per queue shard at admission time (client accepts only —
	// recovery, lease drains and retries bypass it, since those tasks
	// were already acknowledged). 0 disables the quota, preserving the
	// seed's capacity-only admission.
	AsyncFnQuota int
	// Metrics receives data plane telemetry.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.Balancer == nil {
		c.Balancer = loadbalancer.NewLeastLoaded(int64(c.ID) + 1)
	}
	if c.MetricInterval == 0 {
		c.MetricInterval = 250 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 60 * time.Second
	}
	if c.AsyncRetries == 0 {
		c.AsyncRetries = 3
	}
	if c.AsyncShards <= 0 {
		c.AsyncShards = defaultAsyncShards
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	return c
}

// endpointState is one cached ready sandbox. info and capacity are
// guarded by the owning runtime's mu and copied into snapshots on
// rebuild; inFlight is shared with every snapshot referencing this
// endpoint and is mutated CAS-style by the concurrency throttler.
type endpointState struct {
	info     proto.SandboxInfo
	capacity int
	inFlight atomic.Int64
}

type pending struct {
	payload    []byte
	enqueuedAt time.Time
	resultCh   chan invokeResult
}

type invokeResult struct {
	body      []byte
	err       error
	dispatch  time.Time
	coldStart bool
}

// functionRuntime is one function's slice of the data plane. The mutex
// guards only this function's queue and endpoint table; the warm-start
// path reads the published snapshot and the atomic counters without
// taking it.
type functionRuntime struct {
	name string
	mu   sync.Mutex

	// Guarded by mu:
	fn        core.Function
	endpoints map[core.SandboxID]*endpointState
	queue     []*pending
	// epVersion is the version of the last applied endpoint update;
	// broadcasts that arrive out of order are discarded.
	epVersion uint64
	// dead marks a runtime unpublished from the registry; stragglers
	// holding a stale pointer must not enqueue into it.
	dead bool

	// Lock-free:
	queued atomic.Int32 // len(queue) mirror, read by slot release
	snap   atomic.Pointer[endpointSnapshot]
	// coldMarked is set while the runtime sits in DataPlane.cold, so it
	// sits there at most once however long a report takes to leave.
	coldMarked atomic.Bool
}

// DataPlane is one data plane replica.
type DataPlane struct {
	cfg      Config
	clk      clock.Clock
	cp       *cpclient.Client
	metrics  *telemetry.Registry
	listener transport.Listener

	shards []*invokeShard
	// snapPolicy is the balancer's allocation-free fast path, nil when
	// the policy only implements Pick.
	snapPolicy loadbalancer.SnapshotPolicy

	invokeSeq atomic.Uint64

	// Hot-path telemetry, resolved once so the warm path never touches
	// the registry mutex.
	mInvocations     *telemetry.Counter
	mWarmStarts      *telemetry.Counter
	mColdStarts      *telemetry.Counter
	mInvokeErrors    *telemetry.Counter
	mStaleDropped    *telemetry.Counter
	mPickRaces       *telemetry.Counter
	mInvokeWait      *telemetry.Histogram
	mInvokeContended *telemetry.Counter
	mUnknownFunction *telemetry.Counter
	mTimeouts        *telemetry.Counter
	mEndpointBatches *telemetry.Counter

	// Scale-from-zero trigger: the runtimes an invocation has just queued
	// for with no endpoint to wait on, which metricLoop (woken through
	// coldWake) reports to the control plane at once instead of at the
	// next period. coldMu is a leaf lock, taken under a runtime's mu.
	coldMu   sync.Mutex
	cold     []*functionRuntime
	coldWake chan struct{}

	// asyncShards stripes the asynchronous queue (see asyncqueue.go).
	asyncShards []*asyncShard

	// queueEpoch is the async queue epoch the CP assigned this replica
	// (registration/heartbeat acks); settles of own records are fenced
	// by it. leases/leasedKeys track records this replica drains on
	// behalf of dead owners; parked holds own-record settles rejected by
	// a newer fence, retried after the next epoch adoption (see
	// asynclease.go).
	queueEpoch atomic.Uint64
	leaseMu    sync.Mutex
	leases     map[core.DataPlaneID]*heldLease
	leasedKeys map[string]bool
	parkMu     sync.Mutex
	parked     []parkedSettle

	stopCh  chan struct{}
	wg      sync.WaitGroup
	stopped atomic.Bool
}

type asyncTask struct {
	function string
	payload  []byte
	attempt  int
	// storeKey/storeHash locate the durable record for this task ("" when
	// the queue is memory-only). The hash is carried per task so a record
	// recovered from another configuration's shard hash (or the seed's
	// unsharded hash) still settles where it was persisted.
	storeKey  string
	storeHash string
	// leased marks a task drained on behalf of a dead owner under an
	// epoch-numbered lease; its settle is fenced by leaseEpoch against
	// the owner's fence instead of this replica's own epoch.
	leased     bool
	leaseOwner core.DataPlaneID
	leaseEpoch uint64
}

// New creates a data plane replica; call Start to register and serve.
func New(cfg Config) *DataPlane {
	cfg = cfg.withDefaults()
	dp := &DataPlane{
		cfg:         cfg,
		clk:         cfg.Clock,
		cp:          cpclient.New(cfg.Transport, cfg.ControlPlanes),
		metrics:     cfg.Metrics,
		shards:      newRegistryShards(),
		asyncShards: newAsyncShards(cfg.AsyncShards, cfg.AsyncFnQuota),
		leases:      make(map[core.DataPlaneID]*heldLease),
		leasedKeys:  make(map[string]bool),
		coldWake:    make(chan struct{}, 1),
		stopCh:      make(chan struct{}),
	}
	dp.snapPolicy, _ = cfg.Balancer.(loadbalancer.SnapshotPolicy)
	dp.mInvocations = dp.metrics.Counter("invocations")
	dp.mWarmStarts = dp.metrics.Counter("warm_starts")
	dp.mColdStarts = dp.metrics.Counter("cold_starts")
	dp.mInvokeErrors = dp.metrics.Counter("invocation_errors")
	dp.mStaleDropped = dp.metrics.Counter("stale_endpoints_dropped")
	dp.mPickRaces = dp.metrics.Counter("warm_pick_races")
	dp.mInvokeWait = dp.metrics.Histogram("invoke_lock_wait_ms")
	dp.mInvokeContended = dp.metrics.Counter("invoke_lock_contended")
	dp.mUnknownFunction = dp.metrics.Counter("invocations_unknown_function")
	dp.mTimeouts = dp.metrics.Counter("invocation_timeouts")
	dp.mEndpointBatches = dp.metrics.Counter("endpoint_update_batches")
	return dp
}

// newRuntime builds an empty runtime shell for name. Registry insertion
// is the caller's job (getOrCreate).
func (dp *DataPlane) newRuntime(name string) *functionRuntime {
	fr := &functionRuntime{
		name:      name,
		fn:        core.Function{Name: name},
		endpoints: make(map[core.SandboxID]*endpointState),
	}
	fr.snap.Store(emptySnapshot)
	return fr
}

// Start listens, registers with the control plane (which pushes function
// and endpoint caches back), and starts the metric, recovery, and async
// dispatch loops.
func (dp *DataPlane) Start() error {
	// Raise the store-key high-water mark past every durable record
	// before the listener opens: a new acceptance racing ahead of this
	// could mint a colliding key and overwrite an acknowledged task's
	// only durable record. The replay itself runs in the background
	// (recoverAsync) once dispatch loops exist to apply backpressure.
	dp.observeAsyncKeys()
	ln, err := dp.cfg.Transport.Listen(dp.cfg.Addr, dp.handleRPC)
	if err != nil {
		return fmt.Errorf("data plane %d: %w", dp.cfg.ID, err)
	}
	dp.listener = ln
	// A ":0" listen address means the transport picked the port: adopt
	// it so the identity the CP records (and hands to the front end's
	// membership poll) routes back here.
	if _, port := splitAddr(dp.cfg.Addr); port == 0 {
		dp.cfg.Addr = ln.Addr()
	}
	req := proto.RegisterDataPlaneRequest{
		DataPlane:   dp.identity(),
		Durable:     dp.cfg.AsyncStore != nil,
		AsyncHashes: dp.asyncStoreHashes(),
	}
	// Registration rides out control-plane leader elections and brief
	// outages with capped backoff instead of failing the replica's start:
	// "no leader right now" is transient in an HA control plane.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	resp, err := dp.cp.CallWithRetry(ctx, proto.MethodRegisterDataPlane, req.Marshal())
	if err != nil {
		ln.Close()
		return fmt.Errorf("data plane %d: register: %w", dp.cfg.ID, err)
	}
	// The registration ack assigns this incarnation's queue epoch,
	// fencing out any lessee still draining records from a previous
	// incarnation (asynclease.go).
	dp.adoptEpochAck(resp)
	dp.wg.Add(3 + len(dp.asyncShards))
	go dp.metricLoop()
	go dp.heartbeatLoop()
	go dp.recoverAsync()
	for _, sh := range dp.asyncShards {
		go dp.asyncLoop(sh)
	}
	return nil
}

func (dp *DataPlane) identity() core.DataPlane {
	ip, port := splitAddr(dp.cfg.Addr)
	return core.DataPlane{ID: dp.cfg.ID, IP: ip, Port: port}
}

func splitAddr(addr string) (string, uint16) {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			var port uint16
			for _, c := range addr[i+1:] {
				if c < '0' || c > '9' {
					return addr, 0
				}
				port = port*10 + uint16(c-'0')
			}
			return addr[:i], port
		}
	}
	return addr, 0
}

// Stop simulates a data plane crash: in-flight requests fail as their
// client connections are severed (paper §3.4.2).
func (dp *DataPlane) Stop() {
	if !dp.stopped.CompareAndSwap(false, true) {
		return
	}
	// Fail everything queued.
	for _, sh := range dp.shards {
		for _, fr := range sh.fns.load() {
			dp.lockRuntime(fr)
			queue := fr.queue
			fr.queue = nil
			fr.queued.Store(0)
			fr.mu.Unlock()
			for _, p := range queue {
				p.resultCh <- invokeResult{err: errors.New("data plane: shutting down")}
			}
		}
	}
	close(dp.stopCh)
	for _, sh := range dp.asyncShards {
		sh.stop()
	}
	if dp.listener != nil {
		dp.listener.Close()
	}
	dp.wg.Wait()
}

// Addr returns the replica's RPC address.
func (dp *DataPlane) Addr() string { return dp.cfg.Addr }

// ID returns the replica's identity.
func (dp *DataPlane) ID() core.DataPlaneID { return dp.cfg.ID }

// Metrics returns the replica's telemetry registry (invoke-lock
// contention, warm/cold starts, snapshot rebuilds, async counters).
func (dp *DataPlane) Metrics() *telemetry.Registry { return dp.metrics }

func (dp *DataPlane) handleRPC(method string, payload []byte) ([]byte, error) {
	switch method {
	case proto.MethodInvoke:
		return dp.handleInvoke(payload)
	case proto.MethodAddFunction:
		return dp.handleAddFunctions(payload)
	case proto.MethodRemoveFunction:
		return dp.handleRemoveFunction(payload)
	case proto.MethodUpdateEndpointsBatch:
		return dp.handleUpdateEndpointsBatch(payload)
	case proto.MethodAsyncLeaseGrant:
		return dp.handleAsyncLeaseGrant(payload)
	case proto.MethodAsyncLeaseRevoke:
		return dp.handleAsyncLeaseRevoke(payload)
	default:
		return nil, fmt.Errorf("data plane: unknown method %q", method)
	}
}

func deregisteredErr(name string) error {
	return fmt.Errorf("function %q deregistered", name)
}

// handleAddFunctions replaces/extends the function cache (CP pushes the
// full list; the update is idempotent). Updated specs propagate to the
// per-endpoint concurrency capacities, so a raised TargetConcurrency
// takes effect on live endpoints instead of waiting for them to churn.
func (dp *DataPlane) handleAddFunctions(payload []byte) ([]byte, error) {
	list, err := proto.UnmarshalFunctionList(payload)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(list.Functions))
	for _, f := range list.Functions {
		seen[f.Name] = true
		fr := dp.lockLive(f.Name)
		if fr == nil {
			continue
		}
		fr.fn = f
		capacity := sandboxCapacity(&f)
		changed := false
		for _, st := range fr.endpoints {
			if st.capacity != capacity {
				st.capacity = capacity
				changed = true
			}
		}
		var work []dispatchWork
		if changed {
			dp.rebuildSnapshotLocked(fr)
			// A raised capacity may free slots for buffered requests.
			work = dp.pumpLocked(fr)
		}
		fr.mu.Unlock()
		dp.runDispatches(work)
	}
	// Drop functions no longer registered.
	for _, sh := range dp.shards {
		for name := range sh.fns.load() {
			if !seen[name] {
				dp.removeFunction(name)
			}
		}
	}
	return nil, nil
}

func (dp *DataPlane) handleRemoveFunction(payload []byte) ([]byte, error) {
	f, err := core.UnmarshalFunction(payload)
	if err != nil {
		return nil, err
	}
	dp.removeFunction(f.Name)
	return nil, nil
}

// handleUpdateEndpointsBatch applies one coalesced CP sweep: the endpoint
// set of every function whose endpoints changed, in a single RPC, each
// through its own per-function versioned path.
func (dp *DataPlane) handleUpdateEndpointsBatch(payload []byte) ([]byte, error) {
	batch, err := proto.UnmarshalEndpointUpdateBatch(payload)
	if err != nil {
		return nil, err
	}
	dp.mEndpointBatches.Inc()
	for i := range batch.Updates {
		dp.applyEndpointUpdate(&batch.Updates[i])
	}
	return nil, nil
}

// applyEndpointUpdate reconciles a function's endpoint cache with the
// control plane's broadcast, republishes the pick snapshot, then pumps
// the request queue: newly added sandboxes immediately absorb buffered
// cold-start invocations.
func (dp *DataPlane) applyEndpointUpdate(update *proto.EndpointUpdate) {
	fr := dp.lockLive(update.Function)
	if fr == nil {
		return
	}
	// Broadcasts travel on independent goroutines and can reorder; an
	// older full-list update must not regress a newer cache.
	if update.Version != 0 && update.Version <= fr.epVersion {
		fr.mu.Unlock()
		dp.metrics.Counter("endpoint_updates_stale").Inc()
		return
	}
	fr.epVersion = update.Version
	next := make(map[core.SandboxID]*endpointState, len(update.Endpoints))
	capacity := sandboxCapacity(&fr.fn)
	for _, info := range update.Endpoints {
		if prev, ok := fr.endpoints[info.ID]; ok {
			prev.info = info
			prev.capacity = capacity
			next[info.ID] = prev
		} else {
			st := &endpointState{info: info, capacity: capacity}
			next[info.ID] = st
		}
	}
	fr.endpoints = next
	dp.rebuildSnapshotLocked(fr)
	work := dp.pumpLocked(fr)
	fr.mu.Unlock()
	dp.runDispatches(work)
}

// sandboxCapacity is the per-sandbox concurrency limit. The paper's
// evaluation configures sandboxes to process one request at a time,
// matching commercial FaaS defaults (§5.1).
func sandboxCapacity(fn *core.Function) int {
	if fn.Scaling.TargetConcurrency >= 2 {
		return int(fn.Scaling.TargetConcurrency)
	}
	return 1
}
