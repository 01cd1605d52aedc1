// Package fleet assembles tiers of a live cluster for fleet-scale
// experiments (paper §5.2.3 runs the control plane against 5000 worker
// nodes): emulated worker fleets and data plane replica sets. An
// emulated worker is the real worker daemon over sandbox.Null — it
// registers, heartbeats, accepts create/kill batches, reports readiness
// and serves proxied invocations exactly as a deployed worker does, but
// "creating" a sandbox is a map insert plus an optional delay. Thousands
// of them fit in one process, which is what lets registration storms,
// heartbeat floods, autoscale sweeps and correlated failures be driven
// against the control plane's worker registry at fleet scale.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/sandbox"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// Config parameterizes an emulated fleet.
type Config struct {
	// Size is the number of emulated workers (default 16).
	Size int
	// Transport carries RPCs for every worker.
	Transport transport.Transport
	// ControlPlanes are the CP replica addresses.
	ControlPlanes []string
	// Loopback makes every worker listen on 127.0.0.1:0 (real TCP,
	// ports resolved at bind time). When false, workers use synthetic
	// in-process addresses in the 10.77.0.0/16 range.
	Loopback bool
	// HeartbeatInterval is each worker's liveness period; very large
	// values park the loops so harnesses drive heartbeats explicitly.
	HeartbeatInterval time.Duration
	// ReadyDelay simulates per-sandbox creation latency.
	ReadyDelay time.Duration
	// Handler serves proxied invocations on every worker; nil echoes.
	Handler func(payload []byte) ([]byte, error)
	// HandlerFn serves proxied invocations with the invoked function's
	// name available — scenario drivers use it to emulate per-function
	// behavior (exec-time sleeps, version tagging) on one shared fleet.
	// Takes precedence over Handler.
	HandlerFn func(function string, payload []byte) ([]byte, error)
}

// workerCapacity is each emulated worker's advertised CPU (millicores)
// and memory (MB), sized so a 1k fleet absorbs any test burst.
const workerCapacity = 1 << 20

// Fleet is a set of emulated workers managed as one unit.
type Fleet struct {
	cfg     Config
	images  *worker.ImageRegistry
	metrics *telemetry.Registry // shared by every worker
	workers []*worker.Worker
}

// New builds the fleet's workers without starting them.
func New(cfg Config) *Fleet {
	if cfg.Size <= 0 {
		cfg.Size = 16
	}
	f := &Fleet{cfg: cfg, images: worker.NewImageRegistry(), metrics: telemetry.NewRegistry()}
	if byName, plain := cfg.HandlerFn, cfg.Handler; byName != nil {
		f.images.RegisterFallback(func(function string) worker.Handler {
			return func(p []byte) ([]byte, error) { return byName(function, p) }
		})
	} else if plain != nil {
		f.images.RegisterFallback(func(string) worker.Handler { return plain })
	}
	for i := 0; i < cfg.Size; i++ {
		id := i + 1
		node := core.WorkerNode{
			ID:       core.NodeID(id),
			Name:     fmt.Sprintf("emu-w%d", id),
			CPUMilli: workerCapacity,
			MemoryMB: workerCapacity,
		}
		addr := "127.0.0.1:0"
		if !cfg.Loopback {
			// Synthetic /16: NodeID is 16 bits, so high/low byte
			// addressing stays collision-free up to a 65k fleet.
			node.IP = fmt.Sprintf("10.77.%d.%d", id/256, id%256)
			node.Port = 9000
			addr = fmt.Sprintf("%s:%d", node.IP, node.Port)
		}
		f.workers = append(f.workers, f.newWorker(node, addr))
	}
	return f
}

// newWorker builds one fleet worker: the real daemon over a null
// runtime, with its own image cache so its heartbeats carry a digest.
func (f *Fleet) newWorker(node core.WorkerNode, addr string) *worker.Worker {
	cache := sandbox.NewImageCache()
	return worker.New(worker.Config{
		Node:              node,
		Addr:              addr,
		Runtime:           &sandbox.Null{ReadyDelay: f.cfg.ReadyDelay, Images: cache},
		Transport:         f.cfg.Transport,
		ControlPlanes:     f.cfg.ControlPlanes,
		HeartbeatInterval: f.cfg.HeartbeatInterval,
		Images:            f.images,
		Metrics:           f.metrics,
		Cache:             cache,
	})
}

// Start launches every worker concurrently — a registration storm: all
// Size workers race their RegisterWorker RPCs against the control
// plane's registry at once. It returns the first start error, if any.
func (f *Fleet) Start() error {
	errs := make([]error, len(f.workers))
	var wg sync.WaitGroup
	for i, w := range f.workers {
		wg.Add(1)
		go func(i int, w *worker.Worker) {
			defer wg.Done()
			errs[i] = w.Start()
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Workers returns the fleet's workers in node-ID order.
func (f *Fleet) Workers() []*worker.Worker { return f.workers }

// Size returns the number of workers in the fleet.
func (f *Fleet) Size() int { return len(f.workers) }

// SandboxCount sums emulated sandboxes across the fleet.
func (f *Fleet) SandboxCount() int {
	n := 0
	for _, w := range f.workers {
		n += w.SandboxCount()
	}
	return n
}

// StopFraction crashes the first ⌈frac·Size⌉ workers simultaneously — a
// correlated failure (rack or AZ loss). It returns the stopped workers;
// the control plane must detect them by heartbeat timeout and drain
// their endpoints.
func (f *Fleet) StopFraction(frac float64) []*worker.Worker {
	n := int(float64(len(f.workers))*frac + 0.999999)
	if n > len(f.workers) {
		n = len(f.workers)
	}
	victims := f.workers[:n]
	var wg sync.WaitGroup
	for _, w := range victims {
		wg.Add(1)
		go func(w *worker.Worker) {
			defer wg.Done()
			w.Stop()
		}(w)
	}
	wg.Wait()
	return victims
}

// Restart revives previously crashed workers as fresh incarnations on
// the same node identity and address — a rack coming back after a power
// loss. Each revival re-registers with the control plane, whose registry
// replaces the dead entry in place; sandboxes the old incarnation held
// are gone, so the next autoscale sweep re-places them. The restarted
// workers take the victims' slots in Workers().
func (f *Fleet) Restart(victims []*worker.Worker) error {
	dead := make(map[*worker.Worker]bool, len(victims))
	for _, v := range victims {
		dead[v] = true
	}
	var firstErr error
	for i, w := range f.workers {
		if !dead[w] {
			continue
		}
		nw := f.newWorker(w.Node(), w.Addr())
		if err := nw.Start(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		f.workers[i] = nw
	}
	return firstErr
}

// Stop crashes every worker.
func (f *Fleet) Stop() {
	f.StopFraction(1)
}
