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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
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
	// Prewarm is the size of the node's pre-warm pool: at most this many
	// initialized-but-unassigned sandboxes of the generic PrewarmImage
	// are kept on the node, fewer when real sandboxes leave less memory
	// than PrewarmMemoryMB per entry. A cold start whose function has a
	// matching runtime spec claims an entry instead of creating from
	// scratch, and the pool refills asynchronously. 0 disables
	// pre-warming.
	Prewarm int
	// PrewarmImage is the image prewarm sandboxes boot from (a generic
	// base snapshot); empty selects "prewarm/base".
	PrewarmImage string
	// PrewarmMemoryMB is the per-entry memory estimate that bounds the
	// pool under memory pressure: the pool holds at most the node's free
	// memory (Node.MemoryMB less real sandbox allocations) divided by
	// this, and idle entries are evicted, least-recently-idle first, when
	// real sandboxes need the room, so pre-warming never starves them.
	// 0 selects the default (128). The bound is skipped when
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
	listener transport.Listener
	metrics  *telemetry.Registry

	// mu guards registry mutations and resource accounting. The
	// invocation dispatch path never takes it: ready, the dispatch table,
	// is written under mu and read lock-free, and per-sandbox in-flight
	// counts are atomics on the readySandbox itself. functions has the
	// table's keys.
	mu        sync.Mutex
	ready     readyTable
	creating  int
	allocCPU  int
	allocMem  int
	functions map[core.SandboxID]core.Function

	// createSem is the bounded creation pool: at most CreateConcurrency
	// Runtime.Create calls run at once, regardless of how many batched
	// create instructions are queued.
	createSem chan struct{}

	// The pre-warm pool: initialized-but-unassigned PrewarmImage
	// instances, guarded by mu. Entries append in completion order, so
	// index 0 is the least-recently-idle entry (the eviction victim) and
	// claims pop from the tail. poolPending counts fills in flight.
	pool        []*sandbox.Instance
	poolPending int
	prewarmSeq  atomic.Uint64

	// Readiness report coalescing: events queue under readyEvMu, and
	// the flusher (flushReadyLoop), woken through readyWake, drains
	// whatever accumulated while its previous RPC was in flight into one
	// SandboxReadyBatch call.
	readyEvMu sync.Mutex
	readyEvs  []proto.SandboxEvent
	readyWake chan struct{}

	stopCh  chan struct{}
	wg      sync.WaitGroup
	stopped bool

	mInvocations    *telemetry.Counter
	mPrewarmHits    *telemetry.Counter
	mPrewarmMisses  *telemetry.Counter
	mPrewarmEvicted *telemetry.Counter
	mReadyBatch     *telemetry.Histogram
	mCreateWait     *telemetry.Histogram
	mCreateBatches  *telemetry.Counter
	mKillBatches    *telemetry.Counter
	mCreated        *telemetry.Counter
	mCreationMs     *telemetry.Histogram
	mCreateErrors   *telemetry.Counter
	mKilled         *telemetry.Counter
	mPoolSize       *telemetry.Gauge
	mPrewarmErrors  *telemetry.Counter
	mPrewarmFilled  *telemetry.Counter
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

// readyStripes is how many stripes the dispatch table has: a create or a
// kill copies one stripe, about 1/readyStripes of the worker's sandboxes,
// where copying the whole table made each cost grow with the worker.
const readyStripes = 32

// readyTable is the worker's sandbox dispatch table, striped copy-on-write
// like the data plane's function registry: each stripe is an immutable
// map, published through an atomic pointer (nil when empty) and replaced
// under Worker.mu. A lookup is one atomic load and a map read, with no
// lock and no allocation.
type readyTable [readyStripes]atomic.Pointer[map[core.SandboxID]*readySandbox]

// get looks a sandbox up.
func (t *readyTable) get(id core.SandboxID) (*readySandbox, bool) {
	m := t[id%readyStripes].Load()
	if m == nil {
		return nil, false
	}
	rs, ok := (*m)[id]
	return rs, ok
}

// publishLocked replaces id's stripe with a copy that maps id to rs, or
// that lacks id when rs is nil. Callers hold Worker.mu.
func (t *readyTable) publishLocked(id core.SandboxID, rs *readySandbox) {
	stripe := &t[id%readyStripes]
	var cur map[core.SandboxID]*readySandbox
	if m := stripe.Load(); m != nil {
		cur = *m
	}
	if _, held := cur[id]; rs == nil && held && len(cur) == 1 {
		stripe.Store(nil)
		return
	}
	next := make(map[core.SandboxID]*readySandbox, len(cur)+1)
	for k, v := range cur {
		if k != id {
			next[k] = v
		}
	}
	if rs != nil {
		next[id] = rs
	}
	stripe.Store(&next)
}

// each calls fn for every sandbox in the table.
func (t *readyTable) each(fn func(id core.SandboxID, rs *readySandbox)) {
	for i := range t {
		if m := t[i].Load(); m != nil {
			for id, rs := range *m {
				fn(id, rs)
			}
		}
	}
}

// removeReadyLocked takes sandbox id out of the dispatch table, returning
// what it held. Callers hold w.mu.
func (w *Worker) removeReadyLocked(id core.SandboxID) (*readySandbox, bool) {
	rs, ok := w.ready.get(id)
	if ok {
		w.ready.publishLocked(id, nil)
	}
	return rs, ok
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
		cfg:       cfg,
		clk:       cfg.Clock,
		cp:        cpclient.New(cfg.Transport, cfg.ControlPlanes),
		metrics:   cfg.Metrics,
		createSem: make(chan struct{}, cfg.CreateConcurrency),
		functions: make(map[core.SandboxID]core.Function),
		readyWake: make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
	}
	w.mInvocations = w.metrics.Counter("invocations")
	w.mPrewarmHits = w.metrics.Counter("prewarm_hits")
	w.mPrewarmMisses = w.metrics.Counter("prewarm_misses")
	w.mPrewarmEvicted = w.metrics.Counter("prewarm_evictions")
	w.mReadyBatch = w.metrics.CountHistogram("ready_batch_size")
	w.mCreateWait = w.metrics.Histogram("create_pool_wait_ms")
	w.mCreateBatches = w.metrics.Counter("create_batches_received")
	w.mKillBatches = w.metrics.Counter("kill_batches_received")
	w.mCreated = w.metrics.Counter("sandboxes_created")
	w.mCreationMs = w.metrics.Histogram("sandbox_creation_ms")
	w.mCreateErrors = w.metrics.Counter("sandbox_create_errors")
	w.mKilled = w.metrics.Counter("sandboxes_killed")
	w.mPoolSize = w.metrics.Gauge("prewarm_pool_size")
	w.mPrewarmErrors = w.metrics.Counter("prewarm_create_errors")
	w.mPrewarmFilled = w.metrics.Counter("prewarm_filled")
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
	w.wg.Add(2)
	go w.heartbeatLoop()
	go w.flushReadyLoop()
	// Fill the pre-warm pool asynchronously through the creation pool;
	// the node serves create instructions while the pool warms up.
	w.mu.Lock()
	w.topUpPoolLocked()
	w.mu.Unlock()
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
	pool := w.pool
	w.pool = nil
	w.mu.Unlock()
	for _, inst := range pool {
		_ = w.cfg.Runtime.Kill(inst.ID)
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
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.functions)
}

// ReadySandboxIDs returns the IDs of all ready sandboxes, used by tests
// and failure-injection harnesses.
func (w *Worker) ReadySandboxIDs() []core.SandboxID {
	ids := make([]core.SandboxID, 0, w.SandboxCount())
	w.ready.each(func(id core.SandboxID, _ *readySandbox) {
		ids = append(ids, id)
	})
	return ids
}

// InFlight reports the number of invocations currently executing across
// all ready sandboxes, read lock-free from the per-sandbox counters.
// Used by tests and load-inspection harnesses.
func (w *Worker) InFlight() int64 {
	var total int64
	w.ready.each(func(_ core.SandboxID, rs *readySandbox) {
		total += rs.inFlight.Load()
	})
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
		SandboxCount:  len(w.functions),
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
	_, _ = w.cp.Call(ctx, proto.MethodWorkerHeartbeat, hb.Marshal())
}

// Register announces the worker to the control plane. Start calls it;
// harnesses call it again to re-register a node the control plane has
// failed. It rides out CP leader elections and brief outages with the
// cpclient's capped exponential backoff instead of failing — "no leader
// right now" is a transient condition in an HA control plane.
func (w *Worker) Register() error {
	req := proto.RegisterWorkerRequest{Worker: w.cfg.Node}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := w.cp.CallWithRetry(ctx, proto.MethodRegisterWorker, req.Marshal()); err != nil {
		return fmt.Errorf("worker %s: register: %w", w.cfg.Node.Name, err)
	}
	return nil
}

// handleRPC serves CP → WN and DP → WN calls.
func (w *Worker) handleRPC(method string, payload []byte) ([]byte, error) {
	switch method {
	case proto.MethodCreateSandboxBatch:
		batch, err := proto.UnmarshalCreateSandboxBatch(payload)
		if err != nil {
			return nil, err
		}
		w.mCreateBatches.Inc()
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
		w.mKillBatches.Inc()
		// Unknown IDs (already crashed, or torn down by a racing drain)
		// must not fail the rest of the batch.
		for _, id := range batch.IDs {
			_ = w.killSandbox(id)
		}
		return nil, nil
	case proto.MethodListSandboxes:
		return w.listSandboxes().Marshal(), nil
	case proto.MethodInvokeSandbox:
		id, body, err := proto.DecodeInvokeSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		return w.invokeSandbox(id, body)
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
	// pre-warmed entries (least-recently-idle first) down to the pool's
	// lowered target. The claim or miss that follows tops it up.
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
	// pre-warm pool, skipping runtime creation and boot.
	if inst := w.claimPrewarm(&req.Function); inst != nil {
		if req.Function.Image != w.cfg.PrewarmImage {
			// The entry was warmed for the generic image: specialize it
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
		w.ready.publishLocked(req.SandboxID, rs)
		w.functions[req.SandboxID] = req.Function
		w.mu.Unlock()
		w.mPrewarmHits.Inc()
		w.mCreated.Inc()
		w.mCreationMs.Observe(w.clk.Since(start))
		w.queueReady(proto.SandboxEvent{
			SandboxID: req.SandboxID,
			Function:  req.Function.Name,
			Node:      w.cfg.Node.ID,
			Addr:      w.cfg.Addr,
		})
		return
	}
	if w.cfg.Prewarm > 0 {
		w.mPrewarmMisses.Inc()
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
		w.mCreateErrors.Inc()
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
	w.ready.publishLocked(inst.ID, rs)
	w.functions[inst.ID] = req.Function
	w.mu.Unlock()
	w.mCreated.Inc()
	w.mCreationMs.Observe(w.clk.Since(start))

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

// queueReady enqueues one readiness event for the control plane and wakes
// the flusher, which sends whatever accumulated while its previous RPC was
// in flight as a single SandboxReadyBatch — under a creation burst the
// control plane sees O(RPCs in flight) reports instead of one RPC per
// sandbox, while an isolated creation reports at once, as a batch of one.
func (w *Worker) queueReady(ev proto.SandboxEvent) {
	w.readyEvMu.Lock()
	w.readyEvs = append(w.readyEvs, ev)
	w.readyEvMu.Unlock()
	select {
	case w.readyWake <- struct{}{}:
	default: // a wake-up is already pending and will take this event along
	}
}

// flushReadyLoop is the readiness flusher. It lives from Start to Stop and
// parks between flushes, so a report never runs on a goroutine started
// for it; its batch and the queue swap, so neither is allocated again.
func (w *Worker) flushReadyLoop() {
	defer w.wg.Done()
	var evs []proto.SandboxEvent
	for {
		select {
		case <-w.stopCh:
			return
		case <-w.readyWake:
		}
		for {
			w.readyEvMu.Lock()
			evs, w.readyEvs = w.readyEvs, evs[:0]
			w.readyEvMu.Unlock()
			if len(evs) == 0 {
				break
			}
			w.mReadyBatch.ObserveMs(float64(len(evs)))
			batch := proto.SandboxEventBatch{Events: evs}
			ctx := transport.NewDeadline(context.Background(), 5*time.Second)
			_, _ = w.cp.Call(ctx, proto.MethodSandboxReadyBatch, batch.Marshal())
			ctx.Stop()
			clear(evs)
		}
	}
}

// claimPrewarm pops the most-recently-idle pre-warmed instance if the pool
// has one and the function's runtime spec matches this node's runtime (an
// empty spec matches any runtime). Claim or miss, it then tops the pool
// up: a miss means the pool is below target (drained by a burst, or a fill
// failed earlier), and cold-start traffic heals it. Without a pool it
// returns at once, taking no lock.
func (w *Worker) claimPrewarm(fn *core.Function) *sandbox.Instance {
	if w.cfg.Prewarm == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var inst *sandbox.Instance
	if n := len(w.pool); n > 0 && (fn.Runtime == "" || fn.Runtime == w.cfg.Runtime.Name()) {
		inst = w.pool[n-1]
		w.pool[n-1] = nil
		w.pool = w.pool[:n-1]
		w.mPoolSize.Set(int64(len(w.pool)))
	}
	w.topUpPoolLocked()
	return inst
}

// poolTargetLocked is how many entries the pool should hold: Prewarm, or
// fewer when the memory real sandboxes leave free has room for fewer
// entries of PrewarmMemoryMB. Callers hold w.mu.
func (w *Worker) poolTargetLocked() int {
	target := w.cfg.Prewarm
	if mem := w.cfg.Node.MemoryMB; mem > 0 {
		target = min(target, max(0, (mem-w.allocMem)/w.cfg.PrewarmMemoryMB))
	}
	return target
}

// topUpPoolLocked starts one asynchronous fill for every entry the pool,
// counting fills in flight, is short of its target. It runs after every
// claim, miss and release of memory, so the pool converges to its target
// whatever order they come in. Callers hold w.mu.
func (w *Worker) topUpPoolLocked() {
	if w.stopped {
		return
	}
	for n := w.poolTargetLocked() - len(w.pool) - w.poolPending; n > 0; n-- {
		w.poolPending++
		w.wg.Add(1)
		go w.fillPrewarm()
	}
}

func (w *Worker) fillPrewarm() {
	defer w.wg.Done()
	// Pre-warm IDs live in their own range so they can never collide
	// with control-plane-minted sandbox IDs.
	id := core.SandboxID(1<<62 | w.prewarmSeq.Add(1))
	spec := sandbox.Spec{
		ID: id,
		Function: core.Function{
			Name:    "_prewarm",
			Image:   w.cfg.PrewarmImage,
			Port:    1,
			Runtime: w.cfg.Runtime.Name(),
		},
	}
	w.acquireCreateSlot()
	inst, err := w.cfg.Runtime.Create(context.Background(), spec)
	w.releaseCreateSlot()
	if err != nil {
		w.mu.Lock()
		w.poolPending--
		w.mu.Unlock()
		w.mPrewarmErrors.Inc()
		return
	}
	// The pool holds fully initialized sandboxes: boot completes here, at
	// fill time.
	w.bootWait(inst.BootDelay)
	w.mu.Lock()
	w.poolPending--
	// The target may have fallen while the fill was in flight (real
	// sandboxes charged memory): a fill that completes above it is torn
	// down, not pooled.
	if w.stopped || len(w.pool) >= w.poolTargetLocked() {
		w.mu.Unlock()
		_ = w.cfg.Runtime.Kill(inst.ID)
		return
	}
	w.pool = append(w.pool, inst)
	w.mPoolSize.Set(int64(len(w.pool)))
	w.mu.Unlock()
	w.mPrewarmFilled.Inc()
}

// evictForMemoryLocked trims the pool to its target, least-recently-idle
// entries first, returning them for teardown: it yields to real sandboxes
// when their allocation plus the pool's estimated footprint exceeds the
// node's memory. Callers hold w.mu and kill the returned instances after
// unlocking.
func (w *Worker) evictForMemoryLocked() []*sandbox.Instance {
	n := len(w.pool) - w.poolTargetLocked()
	if n <= 0 {
		return nil
	}
	victims := append([]*sandbox.Instance(nil), w.pool[:n]...)
	kept := copy(w.pool, w.pool[n:])
	clear(w.pool[kept:])
	w.pool = w.pool[:kept]
	w.mPoolSize.Set(int64(kept))
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

// releaseResources returns a sandbox's allocation to the node and tops the
// pool up into the memory it frees.
func (w *Worker) releaseResources(f *core.Function) {
	w.mu.Lock()
	w.allocCPU -= f.Scaling.CPUMilli
	w.allocMem -= f.Scaling.MemoryMB
	w.topUpPoolLocked()
	w.mu.Unlock()
}

func (w *Worker) killSandbox(id core.SandboxID) error {
	w.mu.Lock()
	rs, ok := w.removeReadyLocked(id)
	var fn core.Function
	if ok {
		fn = w.functions[id]
		delete(w.functions, id)
	}
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("worker %s: kill: unknown sandbox %d", w.cfg.Node.Name, id)
	}
	w.dropQueuedReady(id)
	w.releaseResources(&fn)
	w.mKilled.Inc()
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
	w.ready.each(func(id core.SandboxID, rs *readySandbox) {
		list.Sandboxes = append(list.Sandboxes, proto.SandboxInfo{
			ID:       id,
			Function: rs.inst.Function,
			Node:     w.cfg.Node.ID,
			Addr:     w.cfg.Addr,
			State:    core.SandboxReady,
		})
	})
	return list
}

// invokeSandbox dispatches a proxied invocation into a sandbox. This is
// the worker's invoke hot path: one atomic map load and two atomic
// counter updates, no lock shared with sandbox churn or heartbeats, and
// no copy: the handler reads the payload inside the request frame.
func (w *Worker) invokeSandbox(id core.SandboxID, payload []byte) ([]byte, error) {
	rs, ok := w.ready.get(id)
	if !ok {
		return nil, fmt.Errorf("worker %s: invoke: no such sandbox %d", w.cfg.Node.Name, id)
	}
	rs.inFlight.Add(1)
	defer rs.inFlight.Add(-1)
	w.mInvocations.Inc()
	return rs.handler(payload)
}

// CrashSandbox simulates a sandbox process crash: the sandbox disappears
// and the worker notifies the control plane (paper §3.4.1: "The worker
// node continuously monitors sandbox processes and notifies the control
// plane of crashes").
func (w *Worker) CrashSandbox(id core.SandboxID) error {
	w.mu.Lock()
	rs, ok := w.removeReadyLocked(id)
	var fn core.Function
	if ok {
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
