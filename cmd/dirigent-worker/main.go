// Command dirigent-worker runs a standalone Dirigent worker daemon over
// TCP: it registers with the control plane, heartbeats with resource
// utilization, and creates/tears down sandboxes through the three-call
// runtime interface. In this reproduction the runtimes are the calibrated
// simulated containerd and Firecracker-snapshot runtimes (package sandbox
// gives the substitution rationale); integrating a physical runtime means
// implementing sandbox.Runtime's three calls.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/sandbox"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9000", "address to listen on")
	id := flag.Int("id", 1, "worker node ID")
	name := flag.String("name", "", "worker name (default worker-<id>)")
	cps := flag.String("control-planes", "127.0.0.1:7000", "comma-separated control plane addresses")
	runtimeName := flag.String("runtime", "containerd", "sandbox runtime: containerd | firecracker")
	latencyScale := flag.Float64("latency-scale", 1.0, "scale factor on simulated sandbox latencies")
	cpuMilli := flag.Int("cpu-milli", 10000, "node CPU capacity in millicores")
	memMB := flag.Int("memory-mb", 65536, "node memory capacity in MB")
	hb := flag.Duration("heartbeat", 500*time.Millisecond, "heartbeat period")
	prewarm := flag.Int("prewarm", 0,
		"pre-warm pool size: at most this many initialized-but-unassigned sandboxes of a generic base image are kept on the node, fewer when real sandboxes leave too little memory; a cold start claims one instead of creating from scratch (0 = disabled)")
	createConc := flag.Int("create-concurrency", 0,
		"bound on concurrent runtime sandbox creations (0 = default 8)")
	flag.Parse()

	if *name == "" {
		*name = fmt.Sprintf("worker-%d", *id)
	}
	host, portStr, err := net.SplitHostPort(*addr)
	if err != nil {
		log.Fatalf("bad -addr: %v", err)
	}
	var port uint16
	fmt.Sscanf(portStr, "%d", &port)

	// The image cache is shared between the runtime (which pulls into it)
	// and the worker daemon, whose heartbeats carry its digest to the
	// control plane for cache-locality-aware placement.
	cache := sandbox.NewImageCache()
	cfg := sandbox.Config{LatencyScale: *latencyScale, Seed: int64(*id), Images: cache}
	var rt sandbox.Runtime
	switch *runtimeName {
	case "containerd":
		rt = sandbox.NewContainerd(cfg)
	case "firecracker":
		rt = sandbox.NewFirecracker(sandbox.FirecrackerConfig{Config: cfg, Snapshots: true})
	default:
		log.Fatalf("unknown runtime %q", *runtimeName)
	}

	w := worker.New(worker.Config{
		Node: core.WorkerNode{
			ID:       core.NodeID(*id),
			Name:     *name,
			IP:       host,
			Port:     port,
			CPUMilli: *cpuMilli,
			MemoryMB: *memMB,
		},
		Addr:              *addr,
		Runtime:           rt,
		Transport:         transport.NewTCP(),
		ControlPlanes:     strings.Split(*cps, ","),
		HeartbeatInterval: *hb,
		Prewarm:           *prewarm,
		CreateConcurrency: *createConc,
		Cache:             cache,
	})
	if err := w.Start(); err != nil {
		log.Fatalf("start worker: %v", err)
	}
	fmt.Printf("dirigent-worker %s listening on %s (runtime: %s)\n", *name, *addr, rt.Name())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	w.Stop()
	// Surface dispatch-path telemetry (invocations, sandbox churn,
	// creation latencies) for post-mortem inspection.
	fmt.Print(w.Metrics().Dump())
}
