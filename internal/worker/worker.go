// Package worker implements the Dirigent worker daemon. It registers the
// node with the control plane, sends periodic heartbeats with resource
// utilization, creates and tears down sandboxes on control-plane
// instruction via the sandbox.Runtime three-call interface, issues health
// probes to newly created sandboxes, notifies the control plane when a
// sandbox becomes ready or crashes, and dispatches proxied invocations
// into sandboxes (paper §3.1, §3.3, §4).
//
// The cold-start path is batched and pipelined: create instructions
// arrive per-worker batches (one RPC per autoscale sweep), run through a
// bounded creation pool, optionally claim from a pre-warm pool of
// initialized-but-unassigned sandboxes (Config.Prewarm), and report
// readiness in coalesced batches — whatever became ready while the
// previous report was in flight ships in one RPC.
package worker

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
	"dirigent/internal/relay"
	"dirigent/internal/sandbox"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// Handler is a function implementation: it receives the invocation payload
// and returns the response body.
type Handler func(payload []byte) ([]byte, error)

// ImageRegistry maps container-image URLs to function implementations,
// standing in for the user code baked into images. Images without a
// registered handler go to the fallback, if one is set, and otherwise
// echo their payload.
type ImageRegistry struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	fallback func(function string) Handler
}

// NewImageRegistry returns an empty registry.
func NewImageRegistry() *ImageRegistry {
	return &ImageRegistry{handlers: make(map[string]Handler)}
}

// Register associates image with handler.
func (r *ImageRegistry) Register(image string, h Handler) {
	r.mu.Lock()
	r.handlers[image] = h
	r.mu.Unlock()
}

// RegisterFallback sets the entry that serves every image without a
// handler of its own. bind runs once per sandbox, at creation, with the
// name of the function the sandbox serves, so a single entry can answer
// for a whole fleet's functions and still know which one it runs as.
func (r *ImageRegistry) RegisterFallback(bind func(function string) Handler) {
	r.mu.Lock()
	r.fallback = bind
	r.mu.Unlock()
}

// Lookup returns the handler a sandbox of function booted from image
// dispatches to: the image's own, else the fallback bound to function,
// else an echo handler.
func (r *ImageRegistry) Lookup(image, function string) Handler {
	r.mu.RLock()
	h, bind := r.handlers[image], r.fallback
	r.mu.RUnlock()
	switch {
	case h != nil:
		return h
	case bind != nil:
		return bind(function)
	}
	return func(p []byte) ([]byte, error) { return p, nil }
}

// Config parameterizes a worker daemon.
type Config struct {
	// Node identifies this worker; Port/IP form its RPC address.
	Node core.WorkerNode
	// Addr is the transport address the daemon listens on. When it ends
	// in ":0" the transport picks the port, and Start overwrites Addr and
	// Node.IP/Port with what was bound, so the address the control plane
	// computes for the worker routes back to the listener.
	Addr string
	// Runtime is the sandbox runtime (containerd / firecracker, or
	// sandbox.Null for emulated fleets).
	Runtime sandbox.Runtime
	// Transport carries RPCs.
	Transport transport.Transport
	// ControlPlanes are the CP replica addresses.
	ControlPlanes []string
	// Relays, when non-empty, switches the worker's liveness traffic
	// (register, heartbeat) to relay mode: RPCs go to the first relay
	// that accepts them, in preference order, falling back to the direct
	// control plane path when every relay refuses. Empty keeps the
	// seed's direct WN → CP protocol exactly (the -relay off ablation).
	Relays []string
	// Clock abstracts time; nil selects the wall clock.
	Clock clock.Clock
	// HeartbeatInterval is the WN → CP liveness period. Harnesses set it
	// very large to park the loop and drive SendHeartbeat themselves.
	HeartbeatInterval time.Duration
	// Images resolves function implementations; nil echoes payloads.
	Images *ImageRegistry
	// Metrics receives worker telemetry; nil creates a private registry.
	Metrics *telemetry.Registry
	// CreateConcurrency bounds how many sandbox creations run inside the
	// runtime at once (the creation pool). Batched create RPCs can carry
	// hundreds of instructions; the pool keeps the runtime's kernel-lock
	// section from being hammered by unbounded goroutines. 0 selects the
	// default (8).
	CreateConcurrency int
	// Prewarm is the node's pre-warm pool *budget*: at most this many
	// initialized-but-unassigned sandboxes are kept on the node. Until the
	// control plane pushes per-image targets the whole budget warms the
	// generic PrewarmImage (the seed's static pool, and the behavior of
	// the predictive-prewarm-off ablation); with targets applied, the
	// budget is partitioned across the predictor's hot images, leftover
	// capacity staying on the base image. A cold start whose function has
	// a matching runtime spec claims an entry — by image first, falling
	// back to base — instead of creating from scratch; pools refill
	// asynchronously after each claim. 0 disables pre-warming.
	Prewarm int
	// PrewarmImage is the image prewarm sandboxes boot from (a generic
	// base snapshot); empty selects "prewarm/base".
	PrewarmImage string
	// PrewarmMemoryMB is the per-entry memory estimate used for pool
	// eviction under memory pressure: when real sandbox allocations plus
	// the pool estimate exceed the node's capacity, idle pool entries are
	// evicted LRU so pre-warming never starves real sandboxes. 0 selects
	// the default (128). Pressure eviction is skipped entirely when
	// Node.MemoryMB is 0 (capacity unknown).
	PrewarmMemoryMB int
	// Cache, when non-nil, is the node's image/snapshot cache; its digest
	// rides heartbeats so the control plane can place cold starts onto
	// nodes that already hold the image (cache-locality-aware placement).
	Cache *sandbox.ImageCache
}

// Worker is a running worker daemon.
type Worker struct {
	cfg      Config
	clk      clock.Clock
	cp       *cpclient.Client
	live     *relay.Client // non-nil in relay mode; carries register + heartbeat
	listener transport.Listener
	metrics  *telemetry.Registry

	// mu guards registry mutations and resource accounting. The
	// invocation dispatch path never takes it: the ready map is
	// published copy-on-write through ready, mirroring the data plane's
	// endpoint snapshots, and per-sandbox in-flight counts are atomics
	// on the readySandbox itself.
	mu        sync.Mutex
	ready     atomic.Pointer[map[core.SandboxID]*readySandbox]
	creating  int
	allocCPU  int
	allocMem  int
	functions map[core.SandboxID]core.Function

	// createSem is the bounded creation pool: at most CreateConcurrency
	// Runtime.Create calls run at once, regardless of how many batched
	// create instructions are queued.
	createSem chan struct{}

	// Pre-warm pools: initialized-but-unassigned instances keyed by the
	// image they were warmed for, guarded by mu. Entries append in
	// completion order, so index 0 is each pool's least-recently-idle
	// entry (the LRU eviction victim) and claims pop from the tail.
	// prewarmPending counts fills in flight per image so claims don't
	// over-refill; prewarmTargets is the per-image partition of the
	// budget (nil until the first control-plane push: static mode, the
	// whole budget on the base image).
	prewarmPools   map[string][]poolEntry
	prewarmPending map[string]int
	prewarmTargets map[string]int
	prewarmGen     uint64
	prewarmSeq     atomic.Uint64

	// Readiness report coalescing: events queue under readyEvMu and a
	// single flusher drains whatever accumulated while its previous RPC
	// was in flight into one SandboxReadyBatch call.
	readyEvMu    sync.Mutex
	readyEvs     []proto.SandboxEvent
	readyFlusher bool

	stopCh  chan struct{}
	wg      sync.WaitGroup
	stopped bool

	mInvocations      *telemetry.Counter
	mPrewarmHits      *telemetry.Counter
	mPrewarmMisses    *telemetry.Counter
	mPrewarmImageHits *telemetry.Counter
	mPrewarmBaseHits  *telemetry.Counter
	mPrewarmEvicted   *telemetry.Counter
	mReadyBatch       *telemetry.Histogram
	mCreateWait       *telemetry.Histogram
}

// poolEntry is one pre-warmed instance plus the moment it became idle,
// the ordering key for LRU eviction.
type poolEntry struct {
	inst      *sandbox.Instance
	idleSince time.Time
}

type readySandbox struct {
	inst    *sandbox.Instance
	handler Handler
	// rtID is the runtime's handle for the instance; it differs from the
	// dispatch-map key when the sandbox was claimed from the pre-warm
	// pool (which mints its own IDs before a control-plane ID exists).
	rtID     core.SandboxID
	inFlight atomic.Int64
}

// readyMap returns the current copy-on-write sandbox dispatch map.
// The map is immutable after publication; never mutate it.
func (w *Worker) readyMap() map[core.SandboxID]*readySandbox {
	return *w.ready.Load()
}

// publishReadyLocked copies the dispatch map, applies mutate, and
// publishes the successor. Callers hold w.mu.
func (w *Worker) publishReadyLocked(mutate func(m map[core.SandboxID]*readySandbox)) {
	cur := w.readyMap()
	next := make(map[core.SandboxID]*readySandbox, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	mutate(next)
	w.ready.Store(&next)
}

// New creates a worker daemon (call Start to register and serve).
func New(cfg Config) *Worker {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	if cfg.Images == nil {
		cfg.Images = NewImageRegistry()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if cfg.CreateConcurrency <= 0 {
		cfg.CreateConcurrency = defaultCreateConcurrency
	}
	if cfg.Prewarm < 0 {
		cfg.Prewarm = 0
	}
	if cfg.PrewarmImage == "" {
		cfg.PrewarmImage = "prewarm/base"
	}
	if cfg.PrewarmMemoryMB <= 0 {
		cfg.PrewarmMemoryMB = 128
	}
	w := &Worker{
		cfg:            cfg,
		clk:            cfg.Clock,
		cp:             cpclient.New(cfg.Transport, cfg.ControlPlanes),
		metrics:        cfg.Metrics,
		createSem:      make(chan struct{}, cfg.CreateConcurrency),
		functions:      make(map[core.SandboxID]core.Function),
		prewarmPools:   make(map[string][]poolEntry),
		prewarmPending: make(map[string]int),
		stopCh:         make(chan struct{}),
	}
	if len(cfg.Relays) > 0 {
		w.live = relay.NewClient(cfg.Transport, cfg.Relays, cfg.ControlPlanes)
		w.live.Fallbacks = cfg.Metrics.Counter("relay_fallbacks")
	}
	empty := make(map[core.SandboxID]*readySandbox)
	w.ready.Store(&empty)
	w.mInvocations = w.metrics.Counter("invocations")
	w.mPrewarmHits = w.metrics.Counter("prewarm_hits")
	w.mPrewarmMisses = w.metrics.Counter("prewarm_misses")
	w.mPrewarmImageHits = w.metrics.Counter("prewarm_image_hits")
	w.mPrewarmBaseHits = w.metrics.Counter("prewarm_base_hits")
	w.mPrewarmEvicted = w.metrics.Counter("prewarm_evictions")
	w.mReadyBatch = w.metrics.CountHistogram("ready_batch_size")
	w.mCreateWait = w.metrics.Histogram("create_pool_wait_ms")
	return w
}

// defaultCreateConcurrency bounds concurrent runtime creations per node.
// The simulated runtimes serialize on a node-wide kernel section anyway
// (paper §4), so a small pool keeps batch bursts from spawning hundreds
// of goroutines that would all pile onto that lock.
const defaultCreateConcurrency = 8

// Start listens for control-plane RPCs, registers the worker, and begins
// heartbeating.
func (w *Worker) Start() error {
	ln, err := w.cfg.Transport.Listen(w.cfg.Addr, w.handleRPC)
	if err != nil {
		return fmt.Errorf("worker %s: %w", w.cfg.Node.Name, err)
	}
	w.listener = ln
	if strings.HasSuffix(w.cfg.Addr, ":0") {
		// An address that does not split leaves portStr empty and fails here.
		host, portStr, _ := net.SplitHostPort(ln.Addr())
		port, err := strconv.ParseUint(portStr, 10, 16)
		if err != nil {
			ln.Close()
			return fmt.Errorf("worker %s: bound address %q: %w", w.cfg.Node.Name, ln.Addr(), err)
		}
		w.cfg.Addr, w.cfg.Node.IP, w.cfg.Node.Port = ln.Addr(), host, uint16(port)
	}
	if err := w.Register(); err != nil {
		ln.Close()
		return err
	}
	w.wg.Add(1)
	go w.heartbeatLoop()
	// Fill the pre-warm pool asynchronously through the creation pool;
	// the node serves create instructions while the pool warms up.
	for i := 0; i < w.cfg.Prewarm; i++ {
		w.spawnPrewarmFill("")
	}
	return nil
}

// Stop simulates a daemon crash: it stops heartbeats and stops serving
// RPCs without deregistering, so the control plane must detect the failure
// by heartbeat timeout (paper §3.4.1, "Worker node fault tolerance").
func (w *Worker) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.stopCh)
	if w.listener != nil {
		w.listener.Close()
	}
	w.wg.Wait()
	// Tear down the pre-warm pool: unlike ready sandboxes (which the
	// control plane tracks and re-drains after detecting the crash),
	// pooled instances are known only to this daemon and would leak in
	// the runtime forever.
	w.mu.Lock()
	pools := w.prewarmPools
	w.prewarmPools = make(map[string][]poolEntry)
	w.mu.Unlock()
	for _, pool := range pools {
		for _, e := range pool {
			_ = w.cfg.Runtime.Kill(e.inst.ID)
		}
	}
}

// Addr returns the worker's RPC address.
func (w *Worker) Addr() string { return w.cfg.Addr }

// Node returns the worker's identity.
func (w *Worker) Node() core.WorkerNode { return w.cfg.Node }

// Metrics returns the worker's telemetry registry.
func (w *Worker) Metrics() *telemetry.Registry { return w.metrics }

// SandboxCount returns the number of ready sandboxes.
func (w *Worker) SandboxCount() int {
	return len(w.readyMap())
}

// ReadySandboxIDs returns the IDs of all ready sandboxes, used by tests
// and failure-injection harnesses.
func (w *Worker) ReadySandboxIDs() []core.SandboxID {
	m := w.readyMap()
	ids := make([]core.SandboxID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return ids
}

// InFlight reports the number of invocations currently executing across
// all ready sandboxes, read lock-free from the per-sandbox counters.
// Used by tests and load-inspection harnesses.
func (w *Worker) InFlight() int64 {
	var total int64
	for _, rs := range w.readyMap() {
		total += rs.inFlight.Load()
	}
	return total
}

// heartbeatLoop is driven by the injected clock so simulated-time tests
// don't burn wall time.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stopCh:
			return
		case <-w.clk.After(w.cfg.HeartbeatInterval):
			w.SendHeartbeat()
		}
	}
}

func (w *Worker) utilization() core.NodeUtilization {
	// The cache digest has its own lock and a memoized slice; fetch it
	// before taking w.mu to keep the registry lock hold short.
	var digest []uint64
	if w.cfg.Cache != nil {
		digest = w.cfg.Cache.Digest()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return core.NodeUtilization{
		Node:          w.cfg.Node.ID,
		CPUMilliUsed:  w.allocCPU,
		MemoryMBUsed:  w.allocMem,
		SandboxCount:  len(w.readyMap()),
		CreationQueue: w.creating,
		CacheDigest:   digest,
	}
}

// SendHeartbeat sends one WN → CP heartbeat with the current utilization.
// The heartbeat loop calls it on its period; harnesses that parked the
// loop call it directly to drive heartbeat storms.
func (w *Worker) SendHeartbeat() {
	hb := proto.WorkerHeartbeat{Node: w.cfg.Node.ID, Util: w.utilization()}
	ctx, cancel := context.WithTimeout(context.Background(), w.cfg.HeartbeatInterval*4)
	defer cancel()
	// Best effort; a missed heartbeat is exactly what the CP's health
	// monitor is designed to tolerate and detect.
	_, _ = w.liveCall(ctx, proto.MethodWorkerHeartbeat, hb.Marshal())
}

// Register announces the worker to the control plane over the liveness
// path. Start calls it; harnesses call it again to re-register a node the
// control plane has failed. It rides out CP leader elections and brief
// outages with capped exponential backoff instead of failing — "no leader
// right now" is a transient condition in an HA control plane, on the relay
// path too. Direct mode delegates to the cpclient's retry loop; relay mode
// wraps the relay client with the same classification.
func (w *Worker) Register() error {
	req := proto.RegisterWorkerRequest{Worker: w.cfg.Node}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := w.registerWithRetry(ctx, req.Marshal()); err != nil {
		return fmt.Errorf("worker %s: register: %w", w.cfg.Node.Name, err)
	}
	return nil
}

func (w *Worker) registerWithRetry(ctx context.Context, payload []byte) error {
	if w.live == nil {
		_, err := w.cp.CallWithRetry(ctx, proto.MethodRegisterWorker, payload)
		return err
	}
	delay := 5 * time.Millisecond
	for {
		_, err := w.live.Call(ctx, proto.MethodRegisterWorker, payload)
		if err == nil || !cpclient.IsUnavailable(err) || ctx.Err() != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(delay):
		}
		if delay *= 2; delay > 100*time.Millisecond {
			delay = 100 * time.Millisecond
		}
	}
}

// liveCall routes the liveness protocol (register, heartbeat): through the
// relay tier in relay mode, directly to the control plane otherwise. Every
// other worker RPC (readiness reports, etc.) stays on the direct path —
// relays carry only the per-worker traffic that dominates at fleet scale.
func (w *Worker) liveCall(ctx context.Context, method string, payload []byte) ([]byte, error) {
	if w.live != nil {
		return w.live.Call(ctx, method, payload)
	}
	return w.cp.Call(ctx, method, payload)
}

// handleRPC serves CP → WN and DP → WN calls.
func (w *Worker) handleRPC(method string, payload []byte) ([]byte, error) {
	switch method {
	case proto.MethodCreateSandboxBatch:
		batch, err := proto.UnmarshalCreateSandboxBatch(payload)
		if err != nil {
			return nil, err
		}
		w.metrics.Counter("create_batches_received").Inc()
		for i := range batch.Creates {
			if err := w.createSandbox(&batch.Creates[i]); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case proto.MethodKillSandboxBatch:
		batch, err := proto.UnmarshalKillSandboxBatch(payload)
		if err != nil {
			return nil, err
		}
		w.metrics.Counter("kill_batches_received").Inc()
		// Unknown IDs (already crashed, or torn down by a racing drain)
		// must not fail the rest of the batch.
		for _, id := range batch.IDs {
			_ = w.killSandbox(id)
		}
		return nil, nil
	case proto.MethodPrewarmTargets:
		targets, err := proto.UnmarshalPrewarmTargets(payload)
		if err != nil {
			return nil, err
		}
		w.applyPrewarmTargets(targets)
		return nil, nil
	case proto.MethodListSandboxes:
		return w.listSandboxes().Marshal(), nil
	case proto.MethodInvokeSandbox:
		req, err := proto.UnmarshalInvokeSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		return w.invokeSandbox(req)
	default:
		return nil, fmt.Errorf("worker: unknown method %q", method)
	}
}

// createSandbox runs asynchronously: the RPC acks the instruction, and the
// worker notifies the control plane once the sandbox passes health probes
// (paper §3.3: "Once a sandbox is created, the worker daemon issues health
// probes ... then notifies the control plane").
func (w *Worker) createSandbox(req *proto.CreateSandboxRequest) error {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return fmt.Errorf("worker %s: stopped", w.cfg.Node.Name)
	}
	w.creating++
	w.allocCPU += req.Function.Scaling.CPUMilli
	w.allocMem += req.Function.Scaling.MemoryMB
	// Under memory pressure the pool yields to real sandboxes: evict idle
	// pre-warmed entries (least-recently-idle first) until the allocation
	// plus the pool's estimated footprint fits the node again.
	victims := w.evictForMemoryLocked()
	w.mu.Unlock()
	w.killEvicted(victims)

	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.doCreate(req)
	}()
	return nil
}

func (w *Worker) doCreate(req *proto.CreateSandboxRequest) {
	start := w.clk.Now()

	// Fast path: claim an initialized-but-unassigned sandbox from the
	// pre-warm pool — by image first (skipping runtime creation, boot,
	// and any image pull), falling back to a generic base entry.
	if inst, imageHit := w.claimPrewarm(&req.Function); inst != nil {
		if !imageHit {
			// A base entry was warmed for the generic image: specialize it
			// for the claiming function, paying the pull/snapshot cost if
			// the image is not in the node-local cache. Runtimes without
			// the capability hand the sandbox over as-is.
			if prep, ok := w.cfg.Runtime.(sandbox.ImagePreparer); ok {
				prep.PrepareImage(req.Function.Image)
			}
		}
		w.mu.Lock()
		w.creating--
		if w.stopped {
			w.mu.Unlock()
			// Claimed out of the pool, so Stop's drain no longer covers
			// this instance: tear it down here or it leaks in the runtime.
			_ = w.cfg.Runtime.Kill(inst.ID)
			w.releaseResources(&req.Function)
			return
		}
		// Rebind the instance to the control plane's sandbox identity and
		// the claiming function; the runtime keeps its own handle (rtID)
		// for teardown.
		bound := *inst
		bound.ID = req.SandboxID
		bound.Function = req.Function.Name
		bound.Image = req.Function.Image
		rs := &readySandbox{
			inst:    &bound,
			handler: w.cfg.Images.Lookup(req.Function.Image, req.Function.Name),
			rtID:    inst.ID,
		}
		w.publishReadyLocked(func(m map[core.SandboxID]*readySandbox) {
			m[req.SandboxID] = rs
		})
		w.functions[req.SandboxID] = req.Function
		w.mu.Unlock()
		w.mPrewarmHits.Inc()
		w.metrics.Counter("sandboxes_created").Inc()
		w.metrics.Histogram("sandbox_creation_ms").Observe(w.clk.Since(start))
		w.queueReady(proto.SandboxEvent{
			SandboxID: req.SandboxID,
			Function:  req.Function.Name,
			Node:      w.cfg.Node.ID,
			Addr:      w.cfg.Addr,
		})
		w.spawnPrewarmFill(req.Function.Image)
		return
	}
	if w.cfg.Prewarm > 0 {
		w.mPrewarmMisses.Inc()
		// A miss means the pool is below target (drained by a burst, or
		// a fill failed earlier); let cold-start traffic heal it,
		// preferring the image that just missed.
		w.spawnPrewarmFill(req.Function.Image)
	}

	w.acquireCreateSlot()
	inst, err := w.cfg.Runtime.Create(context.Background(), sandbox.Spec{
		ID:       req.SandboxID,
		Function: req.Function,
	})
	w.releaseCreateSlot()
	w.mu.Lock()
	w.creating--
	w.mu.Unlock()
	if err != nil {
		w.releaseResources(&req.Function)
		w.metrics.Counter("sandbox_create_errors").Inc()
		return
	}
	// Health probing: wait out the boot delay, then probe.
	if !w.bootWait(inst.BootDelay) {
		return
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	rs := &readySandbox{
		inst:    inst,
		handler: w.cfg.Images.Lookup(req.Function.Image, req.Function.Name),
		rtID:    inst.ID,
	}
	w.publishReadyLocked(func(m map[core.SandboxID]*readySandbox) {
		m[inst.ID] = rs
	})
	w.functions[inst.ID] = req.Function
	w.mu.Unlock()
	w.metrics.Counter("sandboxes_created").Inc()
	w.metrics.Histogram("sandbox_creation_ms").Observe(w.clk.Since(start))

	w.queueReady(proto.SandboxEvent{
		SandboxID: inst.ID,
		Function:  req.Function.Name,
		Node:      w.cfg.Node.ID,
		Addr:      w.cfg.Addr,
	})
}

// bootWait waits out a new sandbox's boot delay, giving up early when the
// daemon stops so Stop never waits for a boot. It reports whether the
// delay elapsed.
func (w *Worker) bootWait(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-w.stopCh:
		return false
	case <-w.clk.After(d):
		return true
	}
}

// acquireCreateSlot blocks until a creation-pool slot frees up,
// recording the wait so saturation is visible in telemetry.
func (w *Worker) acquireCreateSlot() {
	select {
	case w.createSem <- struct{}{}:
		return
	default:
	}
	start := w.clk.Now()
	w.createSem <- struct{}{}
	w.mCreateWait.Observe(w.clk.Since(start))
}

func (w *Worker) releaseCreateSlot() { <-w.createSem }

// queueReady enqueues one readiness event for the control plane and
// ensures a flusher goroutine is draining the queue. The flusher sends
// whatever accumulated while its previous RPC was in flight as a single
// SandboxReadyBatch — under a creation burst the control plane sees
// O(RPCs in flight) reports instead of one RPC per sandbox, while an
// isolated creation reports at once, as a batch of one.
func (w *Worker) queueReady(ev proto.SandboxEvent) {
	w.readyEvMu.Lock()
	w.readyEvs = append(w.readyEvs, ev)
	if w.readyFlusher {
		w.readyEvMu.Unlock()
		return
	}
	w.readyFlusher = true
	w.readyEvMu.Unlock()
	w.wg.Add(1)
	go w.flushReadyLoop()
}

func (w *Worker) flushReadyLoop() {
	defer w.wg.Done()
	for {
		w.readyEvMu.Lock()
		evs := w.readyEvs
		w.readyEvs = nil
		if len(evs) == 0 {
			w.readyFlusher = false
			w.readyEvMu.Unlock()
			return
		}
		w.readyEvMu.Unlock()
		w.mReadyBatch.ObserveMs(float64(len(evs)))
		batch := proto.SandboxEventBatch{Events: evs}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, _ = w.cp.Call(ctx, proto.MethodSandboxReadyBatch, batch.Marshal())
		cancel()
	}
}

// claimPrewarm pops a pre-warmed instance if a pool has one and the
// function's runtime spec matches this node's runtime (an empty spec
// matches any runtime). The function's own image pool is preferred — an
// image hit needs no further work at all — before falling back to the
// generic base pool. The second return reports which case hit.
func (w *Worker) claimPrewarm(fn *core.Function) (*sandbox.Instance, bool) {
	if fn.Runtime != "" && fn.Runtime != w.cfg.Runtime.Name() {
		return nil, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if inst := w.popPoolLocked(fn.Image); inst != nil {
		w.mPrewarmImageHits.Inc()
		return inst, true
	}
	if inst := w.popPoolLocked(w.cfg.PrewarmImage); inst != nil {
		w.mPrewarmBaseHits.Inc()
		return inst, false
	}
	return nil, false
}

// popPoolLocked pops the most-recently-idle entry of one image's pool.
// Callers hold w.mu.
func (w *Worker) popPoolLocked(image string) *sandbox.Instance {
	pool := w.prewarmPools[image]
	n := len(pool)
	if n == 0 {
		return nil
	}
	inst := pool[n-1].inst
	if n == 1 {
		delete(w.prewarmPools, image)
	} else {
		w.prewarmPools[image] = pool[:n-1]
	}
	w.updatePoolGaugeLocked()
	return inst
}

// poolTotalLocked returns pooled + in-flight-fill entries across all
// images. Callers hold w.mu.
func (w *Worker) poolTotalLocked() int {
	total := 0
	for _, pool := range w.prewarmPools {
		total += len(pool)
	}
	for _, n := range w.prewarmPending {
		total += n
	}
	return total
}

func (w *Worker) updatePoolGaugeLocked() {
	total := 0
	for _, pool := range w.prewarmPools {
		total += len(pool)
	}
	w.metrics.Gauge("prewarm_pool_size").Set(int64(total))
}

// targetLocked returns image's share of the pre-warm budget: in static
// mode (no targets pushed yet) the whole budget sits on the base image.
// Callers hold w.mu.
func (w *Worker) targetLocked(image string) int {
	if w.prewarmTargets == nil {
		if image == w.cfg.PrewarmImage {
			return w.cfg.Prewarm
		}
		return 0
	}
	return w.prewarmTargets[image]
}

// pickFillImageLocked chooses which image the next pool fill should warm:
// the preferred image if it is below target, else the image with the
// largest deficit (ties broken by name for determinism). Callers hold
// w.mu.
func (w *Worker) pickFillImageLocked(prefer string) (string, bool) {
	if w.poolTotalLocked() >= w.cfg.Prewarm {
		return "", false
	}
	deficit := func(img string) int {
		return w.targetLocked(img) - len(w.prewarmPools[img]) - w.prewarmPending[img]
	}
	if prefer != "" && deficit(prefer) > 0 {
		return prefer, true
	}
	if w.prewarmTargets == nil {
		if deficit(w.cfg.PrewarmImage) > 0 {
			return w.cfg.PrewarmImage, true
		}
		return "", false
	}
	best, bestD := "", 0
	for img := range w.prewarmTargets {
		if d := deficit(img); d > bestD || (d == bestD && d > 0 && img < best) {
			best, bestD = img, d
		}
	}
	return best, bestD > 0
}

// spawnPrewarmFill tops the pre-warm pools back up toward their targets
// with one asynchronous creation, preferring the given image (the one a
// claim just drained or missed), if the budget has room and some image is
// below target.
func (w *Worker) spawnPrewarmFill(prefer string) {
	if w.cfg.Prewarm <= 0 {
		return
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	image, ok := w.pickFillImageLocked(prefer)
	if !ok {
		w.mu.Unlock()
		return
	}
	w.prewarmPending[image]++
	w.mu.Unlock()
	w.wg.Add(1)
	go w.fillPrewarm(image)
}

func (w *Worker) fillPrewarm(image string) {
	defer w.wg.Done()
	// Pre-warm IDs live in their own range so they can never collide
	// with control-plane-minted sandbox IDs.
	id := core.SandboxID(1<<62 | w.prewarmSeq.Add(1))
	spec := sandbox.Spec{
		ID: id,
		Function: core.Function{
			Name:    "_prewarm",
			Image:   image,
			Port:    1,
			Runtime: w.cfg.Runtime.Name(),
		},
	}
	w.acquireCreateSlot()
	inst, err := w.cfg.Runtime.Create(context.Background(), spec)
	w.releaseCreateSlot()
	if err != nil {
		w.mu.Lock()
		w.decPendingLocked(image)
		w.mu.Unlock()
		w.metrics.Counter("prewarm_create_errors").Inc()
		return
	}
	// The pool holds fully initialized sandboxes: boot completes here, at
	// fill time — for a per-image pool that includes the image pull, which
	// is exactly the work an image-hit claim skips.
	w.bootWait(inst.BootDelay)
	w.mu.Lock()
	w.decPendingLocked(image)
	// Targets may have shifted while the fill was in flight (a push, or
	// static mode resumed): surplus entries are torn down, not pooled.
	if w.stopped || len(w.prewarmPools[image]) >= w.targetLocked(image) {
		w.mu.Unlock()
		_ = w.cfg.Runtime.Kill(inst.ID)
		return
	}
	w.prewarmPools[image] = append(w.prewarmPools[image], poolEntry{inst: inst, idleSince: w.clk.Now()})
	w.updatePoolGaugeLocked()
	w.mu.Unlock()
	w.metrics.Counter("prewarm_filled").Inc()
}

func (w *Worker) decPendingLocked(image string) {
	if w.prewarmPending[image] <= 1 {
		delete(w.prewarmPending, image)
	} else {
		w.prewarmPending[image]--
	}
}

// applyPrewarmTargets installs a control-plane push: the cluster-wide
// per-image wants are apportioned to this node's budget, surplus idle
// entries are evicted (least-recently-idle first), and deficit pools are
// refilled asynchronously.
func (w *Worker) applyPrewarmTargets(t *proto.PrewarmTargets) {
	if w.cfg.Prewarm <= 0 {
		return
	}
	targets := apportionPrewarm(w.cfg.Prewarm, t.Targets, w.cfg.PrewarmImage)
	var victims []*sandbox.Instance
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	// Two push sweeps can race; never let an older generation overwrite a
	// newer one (equal generations re-apply idempotently).
	if t.Gen < w.prewarmGen {
		w.mu.Unlock()
		return
	}
	w.prewarmGen = t.Gen
	w.prewarmTargets = targets
	for img, pool := range w.prewarmPools {
		want := targets[img]
		for len(pool) > want {
			victims = append(victims, pool[0].inst)
			pool = pool[1:]
		}
		if len(pool) == 0 {
			delete(w.prewarmPools, img)
		} else {
			w.prewarmPools[img] = pool
		}
	}
	w.updatePoolGaugeLocked()
	w.mu.Unlock()
	w.killEvicted(victims)
	for i := 0; i < w.cfg.Prewarm; i++ {
		w.spawnPrewarmFill("")
	}
}

// apportionPrewarm splits a node's pre-warm budget across the cluster-wide
// wants proportionally (largest-remainder rounding, deterministic
// tie-break by want then image name); leftover capacity stays on the
// generic base image.
func apportionPrewarm(budget int, wants []proto.PrewarmTarget, base string) map[string]int {
	out := make(map[string]int, len(wants)+1)
	var sum int64
	for i := range wants {
		sum += int64(wants[i].Want)
	}
	if sum == 0 {
		out[base] = budget
		return out
	}
	if sum <= int64(budget) {
		used := 0
		for i := range wants {
			if wants[i].Want > 0 {
				out[wants[i].Image] += int(wants[i].Want)
				used += int(wants[i].Want)
			}
		}
		if budget > used {
			out[base] += budget - used
		}
		return out
	}
	// Over-subscribed: proportional floor shares, remainder to the images
	// with the largest fractional parts.
	type share struct {
		image string
		want  uint32
		rem   int64
	}
	shares := make([]share, 0, len(wants))
	used := 0
	for i := range wants {
		if wants[i].Want == 0 {
			continue
		}
		num := int64(budget) * int64(wants[i].Want)
		out[wants[i].Image] += int(num / sum)
		used += int(num / sum)
		shares = append(shares, share{image: wants[i].Image, want: wants[i].Want, rem: num % sum})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].rem != shares[j].rem {
			return shares[i].rem > shares[j].rem
		}
		if shares[i].want != shares[j].want {
			return shares[i].want > shares[j].want
		}
		return shares[i].image < shares[j].image
	})
	for i := 0; used < budget && i < len(shares); i++ {
		out[shares[i].image]++
		used++
	}
	for img, n := range out {
		if n == 0 {
			delete(out, img)
		}
	}
	return out
}

// evictForMemoryLocked collects idle pool entries for teardown while the
// real-sandbox allocation plus the pool's estimated footprint exceeds the
// node's memory, least-recently-idle across all images first. Skipped
// when capacity is unknown (Node.MemoryMB == 0). Callers hold w.mu and
// kill the returned instances after unlocking.
func (w *Worker) evictForMemoryLocked() []*sandbox.Instance {
	if w.cfg.Node.MemoryMB <= 0 || w.cfg.Prewarm <= 0 {
		return nil
	}
	pooled := 0
	for _, pool := range w.prewarmPools {
		pooled += len(pool)
	}
	var victims []*sandbox.Instance
	for pooled > 0 && w.allocMem+pooled*w.cfg.PrewarmMemoryMB > w.cfg.Node.MemoryMB {
		oldest := ""
		for img, pool := range w.prewarmPools {
			if oldest == "" || pool[0].idleSince.Before(w.prewarmPools[oldest][0].idleSince) {
				oldest = img
			}
		}
		pool := w.prewarmPools[oldest]
		victims = append(victims, pool[0].inst)
		if len(pool) == 1 {
			delete(w.prewarmPools, oldest)
		} else {
			w.prewarmPools[oldest] = pool[1:]
		}
		pooled--
	}
	if len(victims) > 0 {
		w.updatePoolGaugeLocked()
	}
	return victims
}

// killEvicted tears down evicted pool entries outside w.mu (runtime kills
// sleep), counting them in telemetry.
func (w *Worker) killEvicted(victims []*sandbox.Instance) {
	for _, inst := range victims {
		_ = w.cfg.Runtime.Kill(inst.ID)
		w.mPrewarmEvicted.Inc()
	}
}

// PrewarmGen returns the generation of the last applied target push (0
// until one arrives — e.g. after a daemon restart, which the control
// plane detects via re-registration and answers with a fresh push).
func (w *Worker) PrewarmGen() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.prewarmGen
}

// PrewarmPoolSizes returns the current per-image pool sizes, for tests
// and experiments.
func (w *Worker) PrewarmPoolSizes() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int, len(w.prewarmPools))
	for img, pool := range w.prewarmPools {
		out[img] = len(pool)
	}
	return out
}

func (w *Worker) releaseResources(f *core.Function) {
	w.mu.Lock()
	w.allocCPU -= f.Scaling.CPUMilli
	w.allocMem -= f.Scaling.MemoryMB
	w.mu.Unlock()
}

func (w *Worker) killSandbox(id core.SandboxID) error {
	w.mu.Lock()
	rs, ok := w.readyMap()[id]
	var fn core.Function
	if ok {
		w.publishReadyLocked(func(m map[core.SandboxID]*readySandbox) {
			delete(m, id)
		})
		fn = w.functions[id]
		delete(w.functions, id)
	}
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("worker %s: kill: unknown sandbox %d", w.cfg.Node.Name, id)
	}
	w.dropQueuedReady(id)
	w.releaseResources(&fn)
	w.metrics.Counter("sandboxes_killed").Inc()
	return w.cfg.Runtime.Kill(rs.rtID)
}

// dropQueuedReady discards any queued-but-unsent readiness events for a
// sandbox the worker no longer owns. Without this, a kill/crash
// notification sent immediately could overtake the coalesced readiness
// report still sitting in the flusher queue, and the control plane would
// resurrect the dead sandbox as a phantom ready endpoint.
func (w *Worker) dropQueuedReady(id core.SandboxID) {
	w.readyEvMu.Lock()
	kept := w.readyEvs[:0]
	for _, ev := range w.readyEvs {
		if ev.SandboxID != id {
			kept = append(kept, ev)
		}
	}
	w.readyEvs = kept
	w.readyEvMu.Unlock()
}

func (w *Worker) listSandboxes() *proto.SandboxList {
	list := &proto.SandboxList{}
	for id, rs := range w.readyMap() {
		list.Sandboxes = append(list.Sandboxes, proto.SandboxInfo{
			ID:       id,
			Function: rs.inst.Function,
			Node:     w.cfg.Node.ID,
			Addr:     w.cfg.Addr,
			State:    core.SandboxReady,
		})
	}
	return list
}

// invokeSandbox dispatches a proxied invocation into a sandbox. This is
// the worker's invoke hot path: one atomic map load and two atomic
// counter updates, no lock shared with sandbox churn or heartbeats.
func (w *Worker) invokeSandbox(req *proto.InvokeSandboxRequest) ([]byte, error) {
	rs, ok := w.readyMap()[req.SandboxID]
	if !ok {
		return nil, fmt.Errorf("worker %s: invoke: no such sandbox %d", w.cfg.Node.Name, req.SandboxID)
	}
	rs.inFlight.Add(1)
	defer rs.inFlight.Add(-1)
	w.mInvocations.Inc()
	return rs.handler(req.Payload)
}

// CrashSandbox simulates a sandbox process crash: the sandbox disappears
// and the worker notifies the control plane (paper §3.4.1: "The worker
// node continuously monitors sandbox processes and notifies the control
// plane of crashes").
func (w *Worker) CrashSandbox(id core.SandboxID) error {
	w.mu.Lock()
	rs, ok := w.readyMap()[id]
	var fn core.Function
	if ok {
		w.publishReadyLocked(func(m map[core.SandboxID]*readySandbox) {
			delete(m, id)
		})
		fn = w.functions[id]
		delete(w.functions, id)
	}
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("worker %s: crash: unknown sandbox %d", w.cfg.Node.Name, id)
	}
	w.dropQueuedReady(id)
	w.releaseResources(&fn)
	_ = w.cfg.Runtime.Kill(rs.rtID)
	ev := proto.SandboxEvent{
		SandboxID: id,
		Function:  fn.Name,
		Node:      w.cfg.Node.ID,
		Addr:      w.cfg.Addr,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := w.cp.Call(ctx, proto.MethodSandboxCrashed, ev.Marshal())
	return err
}
