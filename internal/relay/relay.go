// Package relay implements the hierarchical liveness tier between worker
// nodes and the control plane. At the paper's fleet scale (§5.2.3 runs
// the control plane against 5000 worker nodes) per-worker liveness RPCs
// are the next bottleneck after registry striping: 5000 workers at 10 Hz
// is 50k control-plane calls per second before any scheduling work. A
// relay absorbs the per-worker traffic below the brain — workers keep
// speaking the unmodified per-worker protocol (MethodWorkerHeartbeat,
// MethodRegisterWorker), just addressed at the relay — and the relay
// ships the control plane one aggregated RPC per flush period:
//
//	WN ──hb──▶ relay ──WorkerHeartbeatBatch (hundreds of samples)──▶ CP
//	WN ──reg─▶ relay ──RegisterWorkerBatch  (group commit)────────▶ CP
//
// The relay holds no authoritative state: liveness is judged by the
// control plane from each batch's CP-side arrival time, and a relay
// crash loses nothing — its workers fail over to another relay (or to
// direct mode) and the control plane treats the silent relay as a
// correlated mass-timeout candidate, re-verifying members individually.
package relay

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// Config parameterizes one relay.
type Config struct {
	// Addr is the relay's RPC address; it doubles as the relay's identity
	// in the batches it ships (resolved after Listen for ":0" binds).
	Addr string
	// Transport carries worker-side and CP-side RPCs.
	Transport transport.Transport
	// ControlPlanes are the CP replica addresses.
	ControlPlanes []string
	// Clock abstracts time; nil selects the wall clock.
	Clock clock.Clock
	// FlushInterval is the batching period (default 100 ms — one CP RPC
	// per relay per worker-heartbeat interval). Very large values park
	// the loop so tests and benchmarks drive Flush explicitly.
	FlushInterval time.Duration
	// Chunk caps how many samples or registrations one CP RPC carries
	// (default 1024), mirroring the control plane's batch chunking so
	// no flush builds an unbounded message.
	Chunk int
	// MissTimeout is how long a once-seen worker can stay silent before
	// the relay reports it Missing to the control plane (default
	// 3 × FlushInterval). The report is a hint: the CP verifies against
	// its own stamps before failing anyone.
	MissTimeout time.Duration
	// MissGrace is how long a silent worker keeps being reported before
	// the relay forgets it entirely (default 10 × MissTimeout) — enough
	// sweeps for the CP to act, without tracking departed workers forever.
	MissGrace time.Duration
	// Metrics receives relay telemetry; nil creates a private registry.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.Chunk <= 0 {
		c.Chunk = 1024
	}
	if c.MissTimeout == 0 {
		c.MissTimeout = 3 * c.FlushInterval
	}
	if c.MissGrace == 0 {
		c.MissGrace = 10 * c.MissTimeout
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	return c
}

// sample is one worker's relay-side tracking entry: its latest heartbeat
// (dirty until shipped) and when the relay last heard from it.
type sample struct {
	beat     proto.WorkerHeartbeat
	dirty    bool
	lastSeen time.Time
}

// Relay is one running relay.
type Relay struct {
	cfg      Config
	clk      clock.Clock
	cp       *cpclient.Client
	listener transport.Listener
	metrics  *telemetry.Registry

	// cpOK tracks whether the last CP flush succeeded. While false the
	// relay refuses worker heartbeats, so workers fail over to their
	// secondary relay or to direct mode instead of reporting into a
	// black hole.
	cpOK atomic.Bool

	mu   sync.Mutex
	seen map[core.NodeID]*sample

	// Registration group commit: announcements that arrive while the
	// previous RegisterWorkerBatch RPC is in flight share the next one.
	regMu      sync.Mutex
	regPending *regGeneration
	regFlusher bool

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	mFlushMs    *telemetry.Histogram
	mBatchSize  *telemetry.Histogram
	mSamples    *telemetry.Counter
	mFlushErrs  *telemetry.Counter
	mRegBatched *telemetry.Counter
}

// regGeneration is one group-commit window of worker registrations. Every
// caller in the generation blocks on done and shares err — a worker's
// register call is acked only after the control plane acked the batch
// that carried it.
type regGeneration struct {
	workers []core.WorkerNode
	done    chan struct{}
	err     error
}

// New builds a relay; call Start to serve.
func New(cfg Config) *Relay {
	cfg = cfg.withDefaults()
	r := &Relay{
		cfg:     cfg,
		clk:     cfg.Clock,
		cp:      cpclient.New(cfg.Transport, cfg.ControlPlanes),
		metrics: cfg.Metrics,
		seen:    make(map[core.NodeID]*sample),
		stopCh:  make(chan struct{}),
	}
	r.cpOK.Store(true)
	r.mFlushMs = r.metrics.Histogram("relay_flush_ms")
	r.mBatchSize = r.metrics.CountHistogram("relay_batch_size")
	r.mSamples = r.metrics.Counter("relay_samples_absorbed")
	r.mFlushErrs = r.metrics.Counter("relay_flush_errors")
	r.mRegBatched = r.metrics.Counter("relay_regs_batched")
	return r
}

// Start listens for worker RPCs and begins the flush loop.
func (r *Relay) Start() error {
	ln, err := r.cfg.Transport.Listen(r.cfg.Addr, r.handleRPC)
	if err != nil {
		return fmt.Errorf("relay %s: %w", r.cfg.Addr, err)
	}
	r.listener = ln
	r.cfg.Addr = ln.Addr() // adopt the resolved address as identity
	r.wg.Add(1)
	go r.flushLoop()
	return nil
}

// Stop simulates a relay crash: worker RPCs stop being served and no
// final flush is sent — the control plane must notice the silence, and
// workers must fail over, exactly as with a real dead relay.
func (r *Relay) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	if r.listener != nil {
		r.listener.Close()
	}
	r.wg.Wait()
}

// Addr returns the relay's RPC address (resolved after Start).
func (r *Relay) Addr() string { return r.cfg.Addr }

// Metrics exposes the relay's metrics registry.
func (r *Relay) Metrics() *telemetry.Registry { return r.metrics }

// handleRPC serves the worker-facing side: the unmodified per-worker
// protocol, absorbed instead of forwarded.
func (r *Relay) handleRPC(method string, payload []byte) ([]byte, error) {
	switch method {
	case proto.MethodWorkerHeartbeat:
		if !r.cpOK.Load() {
			// Don't absorb beats we can't deliver: an error here makes
			// the worker's relay client fail over immediately instead of
			// heartbeating into a partitioned relay until the CP times
			// the whole membership out.
			return nil, fmt.Errorf("relay %s: control plane unreachable", r.cfg.Addr)
		}
		hb, err := proto.UnmarshalWorkerHeartbeat(payload)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		s := r.seen[hb.Node]
		if s == nil {
			s = &sample{}
			r.seen[hb.Node] = s
		}
		s.beat = *hb
		s.dirty = true
		s.lastSeen = r.clk.Now()
		r.mu.Unlock()
		r.mSamples.Inc()
		return nil, nil
	case proto.MethodRegisterWorker:
		req, err := proto.UnmarshalRegisterWorkerRequest(payload)
		if err != nil {
			return nil, err
		}
		return nil, r.register(req.Worker)
	default:
		return nil, fmt.Errorf("relay %s: unknown method %q", r.cfg.Addr, method)
	}
}

// register joins the current group-commit generation and waits for its
// batch to be acked by the control plane.
func (r *Relay) register(w core.WorkerNode) error {
	r.regMu.Lock()
	if r.regPending == nil {
		r.regPending = &regGeneration{done: make(chan struct{})}
	}
	gen := r.regPending
	gen.workers = append(gen.workers, w)
	if !r.regFlusher {
		r.regFlusher = true
		r.wg.Add(1)
		go r.regFlushLoop()
	}
	r.regMu.Unlock()
	select {
	case <-gen.done:
		return gen.err
	case <-r.stopCh:
		return fmt.Errorf("relay %s: stopped", r.cfg.Addr)
	}
}

// regFlushLoop drains registration generations: whatever accumulated
// while the previous RegisterWorkerBatch RPC was in flight ships as the
// next one (the same coalescing shape as the worker's readiness flusher
// and the WAL's group commit).
func (r *Relay) regFlushLoop() {
	defer r.wg.Done()
	for {
		r.regMu.Lock()
		gen := r.regPending
		r.regPending = nil
		if gen == nil {
			r.regFlusher = false
			r.regMu.Unlock()
			return
		}
		r.regMu.Unlock()
		gen.err = r.sendRegistrations(gen.workers)
		close(gen.done)
	}
}

// sendRegistrations ships one generation, chunked at Chunk. A lone
// registration keeps the seed's singleton RPC shape.
func (r *Relay) sendRegistrations(workers []core.WorkerNode) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Registrations must land: ride out CP leader elections with the
	// client's capped-backoff retry instead of failing the whole
	// generation back to every waiting worker.
	if len(workers) == 1 {
		req := proto.RegisterWorkerRequest{Worker: workers[0]}
		_, err := r.cp.CallWithRetry(ctx, proto.MethodRegisterWorker, req.Marshal())
		return err
	}
	r.mRegBatched.Add(int64(len(workers)))
	for len(workers) > 0 {
		chunk := workers
		if len(chunk) > r.cfg.Chunk {
			chunk = chunk[:r.cfg.Chunk]
		}
		workers = workers[len(chunk):]
		batch := proto.RegisterWorkerBatch{Relay: r.cfg.Addr, Workers: chunk}
		if _, err := r.cp.CallWithRetry(ctx, proto.MethodRegisterWorkerBatch, batch.Marshal()); err != nil {
			return err
		}
	}
	return nil
}

func (r *Relay) flushLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		case <-r.clk.After(r.cfg.FlushInterval):
			r.Flush()
		}
	}
}

// Flush ships one aggregated heartbeat batch: every sample absorbed
// since the previous flush, plus the Missing list (once-seen workers
// silent past MissTimeout). Exported so tests and benchmarks drive the
// batching deterministically; the flush loop calls it on its period.
func (r *Relay) Flush() {
	start := r.clk.Now()
	r.mu.Lock()
	var beats []proto.WorkerHeartbeat
	var missing []core.NodeID
	for id, s := range r.seen {
		switch {
		case s.dirty:
			beats = append(beats, s.beat)
			s.dirty = false
		case start.Sub(s.lastSeen) > r.cfg.MissGrace:
			delete(r.seen, id)
		case start.Sub(s.lastSeen) > r.cfg.MissTimeout:
			missing = append(missing, id)
		}
	}
	r.mu.Unlock()
	if len(beats) == 0 && len(missing) == 0 && r.cpOK.Load() {
		return
	}
	// While cpOK is false the relay is rejecting worker heartbeats, so no
	// new samples can trigger a flush; the empty batch below doubles as
	// the reachability probe that lets the relay rejoin once the control
	// plane answers again.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for first := true; first || len(beats) > 0; first = false {
		chunk := beats
		if len(chunk) > r.cfg.Chunk {
			chunk = chunk[:r.cfg.Chunk]
		}
		beats = beats[len(chunk):]
		batch := proto.WorkerHeartbeatBatch{Relay: r.cfg.Addr, Beats: chunk}
		if first {
			batch.Missing = missing // ship the hints once, in the first chunk
		}
		r.mBatchSize.ObserveMs(float64(len(chunk)))
		if _, err := r.cp.Call(ctx, proto.MethodWorkerHeartbeatBatch, batch.Marshal()); err != nil {
			r.cpOK.Store(false)
			r.mFlushErrs.Inc()
			return
		}
	}
	r.cpOK.Store(true)
	r.mFlushMs.Observe(r.clk.Since(start))
}
