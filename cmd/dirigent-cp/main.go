// Command dirigent-cp runs a standalone Dirigent control plane replica
// over TCP. With -peers listing all replica addresses it participates in
// Raft leader election; alone it runs in single-node mode. Cluster state
// that must survive failures (function registrations, worker and data
// plane records — paper Table 3) is persisted to an append-only store
// file; sandbox state is kept in memory only and reconstructed from
// worker reports after a failover.
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

	"dirigent/internal/controlplane"
	"dirigent/internal/placement"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7000", "address to listen on")
	peers := flag.String("peers", "", "comma-separated control plane replica addresses (including this one)")
	dbPath := flag.String("db", "dirigent-cp.aof", "append-only store file")
	fsync := flag.String("fsync", "group",
		"fsync policy: group (coalesce concurrent writes into one fsync), always (Redis appendfsync=always, the paper's baseline), never")
	autoscale := flag.Duration("autoscale-interval", 2*time.Second, "autoscaling loop period: the steady-state and scale-down period (a scale from zero is decided when the data plane reports it, not on this tick)")
	hbTimeout := flag.Duration("heartbeat-timeout", 2*time.Second, "worker heartbeat timeout")
	dpTimeout := flag.Duration("dataplane-timeout", 0, "data plane heartbeat timeout before the replica is pruned from the fan-out set (0 = 3x heartbeat-timeout)")
	deadGC := flag.Duration("dead-worker-gc", 0, "how long a failed worker's record lingers (revivable by a late heartbeat) before it is garbage collected (0 = 10x heartbeat-timeout, negative = never)")
	persistAll := flag.Bool("persist-sandbox-state", false, "ablation: persist sandbox state on the critical path")
	placementName := flag.String("placement", "kube-default",
		"placement policy: kube-default (K8s least-allocated and balanced scoring) | cache-aware (kube scoring plus a bonus for nodes whose image cache already holds the function's image)")
	followerReads := flag.Bool("follower-reads", true,
		"with -peers, let follower replicas serve read-only RPCs (ListDataPlanes, ListFunctions) from their applied store behind a leader-lease check, offloading the leader to writes only")
	rejoin := flag.Bool("rejoin", false,
		"with -peers, mark this replica as rejoining an established group after a crash: it withholds Raft votes until its log catches up to the leader's commit index (leave false on first boot)")
	flag.Parse()

	var placer placement.Policy
	switch *placementName {
	case "kube-default":
		placer = nil // controlplane.New defaults to kube scoring
	case "cache-aware":
		placer = placement.NewCacheAware(1)
	default:
		log.Fatalf("unknown -placement policy %q (want kube-default or cache-aware)", *placementName)
	}

	var policy wal.FsyncPolicy
	switch *fsync {
	case "group":
		policy = wal.FsyncGroup
	case "always":
		policy = wal.FsyncAlways
	case "never":
		policy = wal.FsyncNever
	default:
		log.Fatalf("unknown -fsync policy %q (want group, always, or never)", *fsync)
	}
	db, err := store.Open(*dbPath, policy)
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer db.Close()

	peerList := []string{*addr}
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}

	cfg := controlplane.Config{
		Addr:                *addr,
		Peers:               peerList,
		Transport:           transport.NewTCP(),
		DB:                  db,
		AutoscaleInterval:   *autoscale,
		HeartbeatTimeout:    *hbTimeout,
		DataPlaneTimeout:    *dpTimeout,
		DeadWorkerGC:        *deadGC,
		PersistSandboxState: *persistAll,
		Placer:              placer,
		// TCP deployments need wider election windows than in-process.
		RaftHeartbeat:   50 * time.Millisecond,
		RaftElectionMin: 150 * time.Millisecond,
		RaftElectionMax: 300 * time.Millisecond,
		FollowerReads:   *followerReads,
		RaftRejoin:      *rejoin,
	}
	cp := controlplane.New(cfg)
	if err := cp.Start(); err != nil {
		log.Fatalf("start control plane: %v", err)
	}
	fmt.Printf("dirigent-cp listening on %s (peers: %v, db: %s)\n", *addr, peerList, *dbPath)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	cp.Stop()
	// Surface scheduling-path telemetry (cold-start scheduling latency,
	// create/endpoint batch sizes, shard contention) for post-mortem
	// inspection.
	fmt.Print(cp.Metrics().Dump())
}
