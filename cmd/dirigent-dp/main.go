// Command dirigent-dp runs a standalone Dirigent data plane replica over
// TCP: the monolithic reverse proxy, per-function request queues,
// concurrency throttler, and load balancer of the paper's Figure 6. Data
// planes are all-active; run several behind the front-end load balancer
// and scale them independently of the control plane.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8000", "address to listen on")
	id := flag.Int("id", 1, "data plane replica ID")
	cps := flag.String("control-planes", "127.0.0.1:7000", "comma-separated control plane addresses")
	metricInterval := flag.Duration("metric-interval", 250*time.Millisecond, "scaling metric report period: the steady-state and scale-down period (a function that queues with no sandbox is reported at once)")
	hbInterval := flag.Duration("heartbeat-interval", 250*time.Millisecond, "DP → CP liveness heartbeat period (the CP prunes silent replicas from its fan-out set)")
	queueTimeout := flag.Duration("queue-timeout", 60*time.Second, "cold-start queue timeout")
	asyncStore := flag.String("async-store", "", "append-only store file for the durable async queue (empty = memory-only queue)")
	asyncFnQuota := flag.Int("async-fn-quota", 0, "max queued async tasks one function may hold per queue shard; excess accepts are rejected (0 = no quota, seed admission)")
	flag.Parse()

	var db *store.Store
	if *asyncStore != "" {
		var err error
		if db, err = store.Open(*asyncStore, wal.FsyncGroup); err != nil {
			log.Fatalf("open async store: %v", err)
		}
		defer db.Close()
	}

	dp := dataplane.New(dataplane.Config{
		ID:                core.DataPlaneID(*id),
		Addr:              *addr,
		Transport:         transport.NewTCP(),
		ControlPlanes:     strings.Split(*cps, ","),
		MetricInterval:    *metricInterval,
		HeartbeatInterval: *hbInterval,
		QueueTimeout:      *queueTimeout,
		AsyncStore:        db,
		AsyncFnQuota:      *asyncFnQuota,
	})
	if err := dp.Start(); err != nil {
		log.Fatalf("start data plane: %v", err)
	}
	fmt.Printf("dirigent-dp %d listening on %s\n", *id, *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	dp.Stop()
	// Surface invoke-path telemetry (lock contention, warm/cold starts,
	// snapshot rebuilds, async queue health) for post-mortem inspection.
	fmt.Print(dp.Metrics().Dump())
}
