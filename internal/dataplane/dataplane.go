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
// through a striped registry updated in place, each function's cold-start
// queue sits behind its own mutex, and warm starts pick from an immutable
// per-function endpoint snapshot with CAS-based concurrency slots — no
// lock and no allocation on the steady-state warm path.
package dataplane

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// Balancer picks the sandbox for each warm invocation; nil selects
	// least-loaded, Knative's default (paper §4). It is the plug point
	// for other load balancers such as CH-RLU: PickIndex is the only
	// warm pick, one interface call per attempt.
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
		c.Balancer = loadbalancer.NewLeastLoaded(0)
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
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	return c
}

// endpointState is one cached ready sandbox. info is immutable once the
// state is published, so warm picks read it without the runtime's lock;
// a sandbox whose info changes gets a new state. capacity and seen are
// guarded by the owning runtime's mu, and capacity is copied into
// snapshots on rebuild; inFlight is shared with every snapshot
// referencing this endpoint and is mutated CAS-style by the concurrency
// throttler.
type endpointState struct {
	info     proto.SandboxInfo
	capacity int
	// seen is the runtime's epGen of the last update that listed this
	// sandbox.
	seen     uint64
	inFlight atomic.Int64
}

// pending is one queued cold invocation. Its waiter, the invoking
// goroutine, is the only one that ever runs it: pumpLocked grants it a
// slot through grant and the waiter proxies the invocation itself.
type pending struct {
	grant chan grant
	// fr is the runtime whose queue the waiter last put the pending in,
	// and so the one any slot it is granted belongs to; only the waiter
	// reads or writes it.
	fr *functionRuntime
}

// grant is what a queued invocation is handed: a claimed slot on endpoint
// st of its runtime, or err when it will get none (its function was
// removed, or the data plane is stopping).
type grant struct {
	st  *endpointState
	err error
}

// functionRuntime is one function's slice of the data plane. The mutex
// guards only this function's queue and endpoint table; the warm-start
// path reads the published snapshot and the atomic counters without
// taking it.
type functionRuntime struct {
	name string
	mu   sync.Mutex

	// Guarded by mu:
	// capacity is the per-sandbox concurrency limit the function's target
	// concurrency sets (sandboxCapacity), given to each new endpoint.
	capacity int
	queue    []*pending
	// epVersion is the version of the last applied endpoint update;
	// broadcasts that arrive out of order are discarded.
	epVersion uint64
	// epGen numbers the endpoint updates applied, marking which of the
	// current endpoints an update lists (endpointState.seen).
	epGen uint64
	// dead marks a runtime unpublished from the registry; stragglers
	// holding a stale pointer must not enqueue into it.
	dead bool

	// synced is the generation of the last function sync that listed this
	// runtime, guarded by DataPlane.syncMu.
	synced uint64

	// Lock-free:
	queued atomic.Int32 // len(queue) mirror, read by slot release
	// snap is the function's endpoint set, published under mu: the only
	// copy of it, so an empty set holds nothing but emptySnapshot.
	snap atomic.Pointer[endpointSnapshot]
	// coldMarked is set while the runtime sits in DataPlane.cold, so it
	// sits there at most once however long a report takes to leave.
	coldMarked atomic.Bool
	// active is set while the runtime sits in DataPlane.active.
	active atomic.Bool

	// Owned by metricLoop: reported is the demand (in flight plus queued)
	// the control plane last acknowledged for this function, 0 until the
	// first acknowledgement, which is what the control plane assumes for a
	// function it has no report of.
	reported int
}

// DataPlane is one data plane replica.
type DataPlane struct {
	cfg      Config
	clk      clock.Clock
	cp       *cpclient.Client
	metrics  *telemetry.Registry
	listener transport.Listener

	shards []*invokeShard
	// syncMu serializes function syncs; syncGen numbers them, marking
	// which runtimes a sync listed (functionRuntime.synced).
	syncMu  sync.Mutex
	syncGen uint64

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
	mStaleUpdates    *telemetry.Counter
	mSnapRebuilds    *telemetry.Counter
	mAsync           asyncCounters

	// addrs holds one address string per worker ID for the endpoints
	// updates add, so the endpoints on one worker share it instead of
	// each copying it out of its update. An entry is replaced when its
	// worker's address changes: the table holds one per worker ID.
	addrMu sync.Mutex
	addrs  map[core.NodeID]string

	// Scale-from-zero trigger: the runtimes an invocation has just queued
	// for with no endpoint to wait on, which metricLoop (woken through
	// coldWake) reports to the control plane at once instead of at the
	// next period. coldMu is a leaf lock, taken under a runtime's mu.
	// coldSpare and coldMetrics are metricLoop's own: the emptied list
	// that replaces cold at the next report, and that report's metrics,
	// kept so that a burst of cold starts does not regrow either.
	coldMu      sync.Mutex
	cold        []*functionRuntime
	coldWake    chan struct{}
	coldSpare   []*functionRuntime
	coldMetrics []core.ScalingMetric
	// The active list: the runtimes whose demand has risen since the
	// control plane last held a 0 for them, which are all the runtimes a
	// report of changes looks at (markActive, pruneActive). activeMu is a
	// leaf lock, taken under a runtime's mu. spareActive is the buffer the
	// next takeActive installs. nActive counts the listed runtimes and
	// polls the metrics the periodic reports have collected.
	activeMu    sync.Mutex
	active      []*functionRuntime
	spareActive []*functionRuntime
	nActive     atomic.Int64
	polls       atomic.Uint64
	// fullReport is set when the control plane's demand table for this
	// replica may be empty or stale (start, a function sync, a failed full
	// report) or is due its periodic ground truth (every fullReportEvery-th
	// period), and cleared by the periodic report that sends every function.
	fullReport atomic.Bool

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

	// stopCtx is canceled by Stop, which also ends the cold proxy calls
	// in flight; stopCh is its Done channel.
	stopCtx    context.Context
	cancelStop context.CancelFunc
	stopCh     <-chan struct{}
	wg         sync.WaitGroup
	stopped    atomic.Bool
}

type asyncTask struct {
	function string
	payload  []byte
	attempt  int
	// storeKey/storeHash locate the durable record for this task ("" when
	// the queue is memory-only). The hash is carried per task so a record
	// recovered from a hash another shard count wrote (or the legacy
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
		asyncShards: newAsyncShards(cfg.AsyncFnQuota),
		leases:      make(map[core.DataPlaneID]*heldLease),
		leasedKeys:  make(map[string]bool),
		addrs:       make(map[core.NodeID]string),
		coldWake:    make(chan struct{}, 1),
	}
	dp.stopCtx, dp.cancelStop = context.WithCancel(context.Background())
	dp.stopCh = dp.stopCtx.Done()
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
	dp.mStaleUpdates = dp.metrics.Counter("endpoint_updates_stale")
	dp.mSnapRebuilds = dp.metrics.Counter("endpoint_snapshot_rebuilds")
	dp.mAsync = newAsyncCounters(dp.metrics)
	return dp
}

// newRuntime builds an empty runtime shell for name. Registry insertion
// is the caller's job (getOrCreate).
func (dp *DataPlane) newRuntime(name string) *functionRuntime {
	fr := &functionRuntime{name: name, capacity: 1}
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
	minted := dp.observeAsyncKeys()
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
	dp.fullReport.Store(true)
	dp.wg.Add(3 + len(dp.asyncShards))
	go dp.metricLoop()
	go dp.heartbeatLoop()
	go dp.recoverAsync(minted)
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
	for _, fr := range dp.runtimes(nil) {
		dp.lockRuntime(fr)
		queue := fr.queue
		fr.queue = nil
		fr.queued.Store(0)
		fr.mu.Unlock()
		for _, p := range queue {
			p.grant <- grant{err: errShuttingDown}
		}
	}
	dp.cancelStop()
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
	case proto.MethodSyncFunctions:
		return dp.handleSyncFunctions(payload)
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

// handleAddFunctions applies a registration delta: every listed function
// is upserted and the rest of the cache is left alone, so a registration
// costs the data plane one function however many are registered. The
// delta is decoded in place: one for a function already held allocates
// nothing, one for a new function its name and runtime.
func (dp *DataPlane) handleAddFunctions(payload []byte) ([]byte, error) {
	return nil, proto.VisitFunctionList(payload, func(name []byte, targetConcurrency float64) {
		dp.upsertFunction(name, targetConcurrency)
	})
}

// handleSyncFunctions replaces the function cache with the control
// plane's full registry: listed functions are upserted and stamped with
// the sync's generation, and the runtimes left unstamped are removed
// (failing their queued invocations). The control plane sends it when the
// data plane may have missed deltas: on admission, revival and recovery,
// which are also when its demand table for this replica may be empty, so
// the next scaling report carries every function.
func (dp *DataPlane) handleSyncFunctions(payload []byte) ([]byte, error) {
	dp.syncMu.Lock()
	defer dp.syncMu.Unlock()
	dp.syncGen++
	gen := dp.syncGen
	err := proto.VisitFunctionList(payload, func(name []byte, targetConcurrency float64) {
		if fr := dp.upsertFunction(name, targetConcurrency); fr != nil {
			fr.synced = gen
		}
	})
	if err != nil {
		return nil, err
	}
	for _, fr := range dp.runtimes(func(fr *functionRuntime) bool { return fr.synced != gen }) {
		dp.removeRuntime(fr)
	}
	dp.fullReport.Store(true)
	return nil, nil
}

// upsertFunction installs the function called name, or updates the one
// the registry holds, and returns its runtime: nil if the data plane is
// stopping. An updated target concurrency propagates to the per-endpoint
// concurrency capacities, so a raised one takes effect on live endpoints
// instead of waiting for them to churn.
func (dp *DataPlane) upsertFunction(name []byte, targetConcurrency float64) *functionRuntime {
	fr := dp.lockLive(name)
	if fr == nil {
		return nil
	}
	defer fr.mu.Unlock()
	capacity := sandboxCapacity(targetConcurrency)
	fr.capacity = capacity
	cur := fr.snap.Load().states
	changed := false
	for _, st := range cur {
		if st.capacity != capacity {
			st.capacity = capacity
			changed = true
		}
	}
	if changed {
		snap := newSnapshot(len(cur))
		snap.states = append(snap.states, cur...)
		dp.publishLocked(fr, snap)
		// A raised capacity may free slots for buffered requests.
		dp.pumpLocked(fr)
	}
	return fr
}

func (dp *DataPlane) handleRemoveFunction(payload []byte) ([]byte, error) {
	f, err := core.UnmarshalFunction(payload)
	if err != nil {
		return nil, err
	}
	dp.removeFunction(f.Name)
	return nil, nil
}

// handleUpdateEndpointsBatch applies one coalesced control-plane flush:
// the endpoint set of every function whose endpoints changed, in a single
// RPC, each through its own per-function versioned path. The payload is
// decoded in place and nothing of it is kept, so a batch allocates only
// for sandboxes new to their function's set.
func (dp *DataPlane) handleUpdateEndpointsBatch(payload []byte) ([]byte, error) {
	err := proto.VisitEndpointUpdateBatch(payload, func(function []byte, version uint64, endpoints proto.EndpointViews) {
		dp.applyEndpointUpdate(function, version, endpoints)
	})
	if err != nil {
		return nil, err
	}
	dp.mEndpointBatches.Inc()
	return nil, nil
}

// applyEndpointUpdate reconciles a function's endpoint cache with the
// control plane's update, republishes the pick snapshot if the set
// changed, then pumps the request queue: newly added sandboxes
// immediately absorb buffered cold-start invocations. An update for a
// function this replica does not know is dropped: only AddFunction and
// SyncFunctions create a runtime, and an update built before a
// deregistration can arrive after it. The control plane re-sends the
// endpoints of every function an AddFunction or SyncFunctions delivers.
func (dp *DataPlane) applyEndpointUpdate(function []byte, version uint64, endpoints proto.EndpointViews) {
	fr := dp.lockKnown(function)
	if fr == nil {
		return
	}
	// An older full-list update must not regress a newer cache: a
	// replica re-registered under a new sender can see two flushes race.
	if version != 0 && version <= fr.epVersion {
		fr.mu.Unlock()
		dp.mStaleUpdates.Inc()
		return
	}
	fr.epVersion = version
	dp.setEndpointsLocked(fr, endpoints)
	dp.pumpLocked(fr)
	fr.mu.Unlock()
}

// setEndpointsLocked makes endpoints fr's endpoint set, as a diff against
// the current one: a listed sandbox already in the set keeps its state
// and in-flight count, one new to it gets a state, and a snapshot is
// published only if the set changed. Emptying the set allocates
// nothing; adding a sandbox allocates its state and the snapshot. Callers
// hold fr.mu.
func (dp *DataPlane) setEndpointsLocked(fr *functionRuntime, endpoints proto.EndpointViews) {
	cur := fr.snap.Load().states
	fr.epGen++
	kept, added := 0, 0
	scan := endpoints
	for v, ok := scan.Next(); ok; v, ok = scan.Next() {
		switch st := findEndpoint(cur, &v); {
		case st == nil:
			added++
		case st.seen != fr.epGen:
			st.seen = fr.epGen
			kept++
		}
	}
	switch {
	case added == 0 && kept == len(cur):
		return
	case added == 0 && kept == 0:
		dp.publishLocked(fr, emptySnapshot)
		return
	}
	snap := newSnapshot(kept + added)
	for _, st := range cur {
		if st.seen == fr.epGen {
			snap.states = append(snap.states, st)
		}
	}
	for v, ok := endpoints.Next(); ok; v, ok = endpoints.Next() {
		if findEndpoint(cur, &v) == nil {
			snap.states = append(snap.states, &endpointState{
				info: proto.SandboxInfo{
					ID:       v.ID,
					Function: fr.name,
					Node:     v.Node,
					Addr:     dp.workerAddr(v.Node, v.Addr),
					State:    v.State,
				},
				capacity: fr.capacity,
			})
		}
	}
	dp.publishLocked(fr, snap)
}

// findEndpoint returns the state in states, sorted by sandbox ID, that
// describes the sandbox v describes, or nil.
func findEndpoint(states []*endpointState, v *proto.EndpointView) *endpointState {
	i, ok := slices.BinarySearchFunc(states, v.ID, func(st *endpointState, id core.SandboxID) int {
		return cmp.Compare(st.info.ID, id)
	})
	if !ok {
		return nil
	}
	st := states[i]
	if st.info.Node != v.Node || st.info.Addr != string(v.Addr) || st.info.State != v.State {
		return nil
	}
	return st
}

// workerAddr returns addr, the address of worker node, as the string the
// address table holds for it, copying it out of the payload only when the
// table has no entry for node or holds another address.
func (dp *DataPlane) workerAddr(node core.NodeID, addr []byte) string {
	dp.addrMu.Lock()
	defer dp.addrMu.Unlock()
	if s, ok := dp.addrs[node]; ok && s == string(addr) {
		return s
	}
	s := string(addr)
	dp.addrs[node] = s
	return s
}

// sandboxCapacity is the per-sandbox concurrency limit. The paper's
// evaluation configures sandboxes to process one request at a time,
// matching commercial FaaS defaults (§5.1).
func sandboxCapacity(targetConcurrency float64) int {
	if targetConcurrency >= 2 {
		return int(targetConcurrency)
	}
	return 1
}
