// Package cluster assembles a complete in-process Dirigent cluster —
// replicated control plane, active-active data planes, worker nodes with
// simulated sandbox runtimes, a front-end load balancer, and a replicated
// persistent store — mirroring the paper's deployment (§5.1: 3 CP replicas,
// 3 DP replicas, HA front end, worker fleet). It exposes the end-user API
// (register + invoke, paper Table 2) and failure-injection hooks used by
// the fault-tolerance experiments (§5.4).
package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/dataplane"
	"dirigent/internal/frontend"
	"dirigent/internal/placement"
	"dirigent/internal/predictor"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
	"dirigent/internal/versioning"
	"dirigent/internal/worker"
)

// Options configures a cluster.
type Options struct {
	// ControlPlanes is the number of CP replicas (paper default: 3).
	ControlPlanes int
	// DataPlanes is the number of DP replicas (paper default: 3).
	DataPlanes int
	// Workers is the number of worker nodes.
	Workers int
	// Runtime selects the sandbox runtime: "containerd" (default) or
	// "firecracker" (snapshot-enabled).
	Runtime string
	// LatencyScale multiplies all simulated sandbox latencies; tests use
	// small values to compress time. 0 disables simulated latency.
	LatencyScale float64
	// PersistSandboxState enables the persist-everything ablation.
	PersistSandboxState bool
	// StateShards stripes the control plane's function state map
	// (0 = default 32, 1 = the single-global-lock ablation).
	StateShards int
	// AutoscaleInterval, HeartbeatTimeout, MetricInterval, and
	// NoDownscaleWindow tune the control loops (zero selects defaults
	// suitable for tests: 50 ms autoscale, 500 ms heartbeat timeout,
	// 20 ms metrics, no downscale suppression).
	AutoscaleInterval time.Duration
	HeartbeatTimeout  time.Duration
	MetricInterval    time.Duration
	NoDownscaleWindow time.Duration
	// QueueTimeout bounds cold-start queueing in the data plane.
	QueueTimeout time.Duration
	// WorkerCPUMilli / WorkerMemMB set per-node capacity (paper nodes:
	// 10 cores, 64 GB).
	WorkerCPUMilli int
	WorkerMemMB    int
	// Placer overrides the placement policy.
	Placer placement.Policy
	// Prewarm is each worker's pre-warm pool budget (0 disables pools).
	Prewarm int
	// PredictivePrewarm turns on the control plane's demand predictor,
	// which partitions each worker's Prewarm budget across the hot images
	// it forecasts. Off, the whole budget warms the generic base image
	// (the seed's static pool).
	PredictivePrewarm bool
	// Predictor tunes the demand predictor (zero values select defaults).
	Predictor predictor.Config
	// Seed seeds all stochastic models.
	Seed int64
	// PrefetchImages pre-caches these images on every worker, matching
	// the paper's methodology (§5.1).
	PrefetchImages []string
	// Versions optionally installs a version router in the front-end LB
	// for canary/blue-green traffic splits (see internal/versioning).
	Versions *versioning.Router
	// AsyncPersist backs every data plane's async queue with one shared
	// in-memory store (the paper co-locates the durable queue with the
	// cluster store), so accepted async invocations survive DP crashes
	// and the control plane can lease a dead replica's records to the
	// surviving replicas. Off, async tasks live only in DP memory (the
	// seed default).
	AsyncPersist bool
	// AsyncFnQuota caps per-function occupancy of each DP's async queue
	// shards (0 = no quota, seed admission).
	AsyncFnQuota int
	// AsyncLeaseDisabled turns off lease failover of dead replicas'
	// async records (ablation: persisted tasks wait for a restart).
	AsyncLeaseDisabled bool
	// CPFollowerReads lets CP followers serve read-only RPCs
	// (ListDataPlanes, ListFunctions) from their applied store, so the
	// leader's RPC load drops to writes. Only meaningful with
	// ControlPlanes > 1.
	CPFollowerReads bool
}

func (o Options) withDefaults() Options {
	if o.ControlPlanes == 0 {
		o.ControlPlanes = 3
	}
	if o.DataPlanes == 0 {
		o.DataPlanes = 3
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Runtime == "" {
		o.Runtime = "containerd"
	}
	if o.AutoscaleInterval == 0 {
		o.AutoscaleInterval = 50 * time.Millisecond
	}
	if o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = 500 * time.Millisecond
	}
	if o.MetricInterval == 0 {
		o.MetricInterval = 20 * time.Millisecond
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = 30 * time.Second
	}
	if o.WorkerCPUMilli == 0 {
		o.WorkerCPUMilli = 10000 // 10 cores
	}
	if o.WorkerMemMB == 0 {
		o.WorkerMemMB = 64 * 1024
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Cluster is a running in-process Dirigent cluster.
type Cluster struct {
	opts      Options
	Transport *transport.InProc
	CPs       []*controlplane.ControlPlane
	DPs       []*dataplane.DataPlane
	Workers   []*worker.Worker
	LB        *frontend.LB
	Images    *worker.ImageRegistry
	Metrics   *telemetry.Registry
	// Caches holds each worker's image/snapshot cache (index-aligned with
	// Workers); experiments sum their miss counts to measure image pulls.
	Caches []*sandbox.ImageCache

	stores  []*store.Store
	asyncDB *store.Store
	cpAddrs []string
	client  *cpclient.Client
}

// AsyncStore returns the shared async queue store (nil without
// AsyncPersist).
func (c *Cluster) AsyncStore() *store.Store { return c.asyncDB }

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	tr := transport.NewInProc()
	images := worker.NewImageRegistry()
	metrics := telemetry.NewRegistry()

	c := &Cluster{
		opts:      opts,
		Transport: tr,
		Images:    images,
		Metrics:   metrics,
	}

	// Persistent store: one per CP node (the paper co-locates a Redis
	// replica with each CP replica). With multiple CPs, replication runs
	// through the Raft log — each replica applies committed batches to
	// its own store; with a single CP the store backs it directly, which
	// is seed-exact.
	for i := 0; i < opts.ControlPlanes; i++ {
		c.stores = append(c.stores, store.NewMemory())
		c.cpAddrs = append(c.cpAddrs, fmt.Sprintf("cp%d:7000", i))
	}
	for i := 0; i < opts.ControlPlanes; i++ {
		c.CPs = append(c.CPs, c.newControlPlane(i, false))
	}
	for _, cp := range c.CPs {
		if err := cp.Start(); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	if err := c.awaitLeader(5 * time.Second); err != nil {
		c.Shutdown()
		return nil, err
	}
	c.client = cpclient.New(tr, c.cpAddrs)

	// Data planes.
	if opts.AsyncPersist {
		c.asyncDB = store.NewMemory()
	}
	var dpAddrs []string
	for i := 0; i < opts.DataPlanes; i++ {
		dp := dataplane.New(dataplane.Config{
			ID:             core.DataPlaneID(i + 1),
			Addr:           fmt.Sprintf("dp%d:8000", i),
			Transport:      tr,
			ControlPlanes:  c.cpAddrs,
			MetricInterval: opts.MetricInterval,
			QueueTimeout:   opts.QueueTimeout,
			AsyncStore:     c.asyncDB,
			AsyncFnQuota:   opts.AsyncFnQuota,
			Metrics:        metrics,
		})
		if err := dp.Start(); err != nil {
			c.Shutdown()
			return nil, err
		}
		c.DPs = append(c.DPs, dp)
		dpAddrs = append(dpAddrs, dp.Addr())
	}

	// Workers.
	for i := 0; i < opts.Workers; i++ {
		w, err := c.newWorker(i)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.Workers = append(c.Workers, w)
	}

	// The static list only seeds the front end; membership then syncs
	// from the control plane's live replica set, so killed and restarted
	// data planes flow through to steering mid-experiment.
	c.LB = frontend.New(frontend.Config{
		Transport:          tr,
		DataPlanes:         dpAddrs,
		ControlPlanes:      c.cpAddrs,
		MembershipInterval: opts.HeartbeatTimeout / 4,
		FailureCooldown:    200 * time.Millisecond,
		RequestTimeout:     opts.QueueTimeout * 2,
		Versions:           opts.Versions,
		Metrics:            metrics,
	})
	if err := c.LB.Start(); err != nil {
		c.Shutdown()
		return nil, err
	}
	return c, nil
}

// newControlPlane builds (without starting) CP replica i against the
// cluster's current store for that slot. Multi-CP clusters run the
// replicated-log regime; a singleton CP uses its store directly.
func (c *Cluster) newControlPlane(i int, rejoin bool) *controlplane.ControlPlane {
	opts := c.opts
	cfg := controlplane.Config{
		Addr:                c.cpAddrs[i],
		Peers:               c.cpAddrs,
		Transport:           c.Transport,
		AutoscaleInterval:   opts.AutoscaleInterval,
		HeartbeatTimeout:    opts.HeartbeatTimeout,
		NoDownscaleWindow:   opts.NoDownscaleWindow,
		PersistSandboxState: opts.PersistSandboxState,
		StateShards:         opts.StateShards,
		Placer:              opts.Placer,
		PredictivePrewarm:   opts.PredictivePrewarm,
		Predictor:           opts.Predictor,
		AsyncLeaseDisabled:  opts.AsyncLeaseDisabled,
		Metrics:             c.Metrics,
	}
	if len(c.cpAddrs) > 1 {
		cfg.LocalStore = c.stores[i]
		cfg.FollowerReads = opts.CPFollowerReads
		cfg.RaftRejoin = rejoin
		// The default read lease equals the election-timeout floor (8 ms
		// in-process), which scheduling jitter under load overruns
		// constantly — each overrun bounces the read to the leader. 50 ms
		// keeps staleness bounded well below the worker heartbeat windows
		// while letting followers actually absorb the read path.
		cfg.ReadLease = 50 * time.Millisecond
		// The Raft package's own defaults (2 ms heartbeat, 8–16 ms
		// election timeout) are for its unit tests: a leader goroutine
		// that is off-CPU for 8 ms on a loaded host loses the term, and
		// the next leader starts every function at scale zero. These keep
		// failover well under the failure detector's windows and above
		// both scheduling jitter and the read lease.
		cfg.RaftHeartbeat = 10 * time.Millisecond
		cfg.RaftElectionMin = 60 * time.Millisecond
		cfg.RaftElectionMax = 120 * time.Millisecond
	} else {
		cfg.DB = c.stores[i]
	}
	return controlplane.New(cfg)
}

// RestartCP revives control plane replica i after a crash (systemd
// restart in the paper's deployment). The replica rejoins the Raft group
// with an empty log and store; the leader's replicator backtracks and
// re-ships the whole log, so the replica catches up to the applied state
// without any shared-store replay.
func (c *Cluster) RestartCP(i int) error {
	c.stores[i] = store.NewMemory()
	cp := c.newControlPlane(i, true)
	if err := cp.Start(); err != nil {
		return err
	}
	c.CPs[i] = cp
	return nil
}

// CPStore returns replica i's local store (tests inspect it to verify a
// revived follower caught up).
func (c *Cluster) CPStore(i int) *store.Store { return c.stores[i] }

func (c *Cluster) newWorker(i int) (*worker.Worker, error) {
	opts := c.opts
	nodeIP := [4]byte{10, 0, byte(i / 250), byte(i%250 + 1)}
	images := sandbox.NewImageCache()
	images.Prefetch(opts.PrefetchImages...)
	runtimeCfg := sandbox.Config{
		LatencyScale: opts.LatencyScale,
		NodeIP:       nodeIP,
		Images:       images,
		Seed:         opts.Seed + int64(i)*101,
	}
	var rt sandbox.Runtime
	switch opts.Runtime {
	case "firecracker":
		rt = sandbox.NewFirecracker(sandbox.FirecrackerConfig{Config: runtimeCfg, Snapshots: true})
	case "containerd":
		rt = sandbox.NewContainerd(runtimeCfg)
	default:
		return nil, fmt.Errorf("cluster: unknown runtime %q", opts.Runtime)
	}
	node := core.WorkerNode{
		ID:       core.NodeID(i + 1),
		Name:     fmt.Sprintf("worker-%d", i),
		IP:       fmt.Sprintf("10.0.%d.%d", i/250, i%250+1),
		Port:     9000,
		CPUMilli: opts.WorkerCPUMilli,
		MemoryMB: opts.WorkerMemMB,
	}
	w := worker.New(worker.Config{
		Node:              node,
		Addr:              fmt.Sprintf("%s:%d", node.IP, node.Port),
		Runtime:           rt,
		Transport:         c.Transport,
		ControlPlanes:     c.cpAddrs,
		HeartbeatInterval: opts.HeartbeatTimeout / 4,
		Images:            c.Images,
		Metrics:           c.Metrics,
		Prewarm:           opts.Prewarm,
		Cache:             images,
	})
	if err := w.Start(); err != nil {
		return nil, err
	}
	c.Caches = append(c.Caches, images)
	return w, nil
}

func (c *Cluster) awaitLeader(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Leader() != nil {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("cluster: no control plane leader elected within %v", timeout)
}

// Leader returns the current CP leader, or nil during an election.
func (c *Cluster) Leader() *controlplane.ControlPlane {
	for _, cp := range c.CPs {
		if cp.IsLeader() {
			return cp
		}
	}
	return nil
}

// RegisterFunction registers a function through the end-user API.
func (c *Cluster) RegisterFunction(fn core.Function) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.client.Call(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	return err
}

// DeregisterFunction removes a function.
func (c *Cluster) DeregisterFunction(name string) error {
	fn := core.Function{Name: name, Image: "x", Port: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := c.client.Call(ctx, proto.MethodDeregisterFunction, core.MarshalFunction(&fn))
	return err
}

// Invoke synchronously invokes a function through the front-end LB.
func (c *Cluster) Invoke(ctx context.Context, function string, payload []byte) (*proto.InvokeResponse, error) {
	return c.LB.Invoke(ctx, &proto.InvokeRequest{Function: function, Payload: payload})
}

// InvokeAsync submits an asynchronous invocation (at-least-once).
func (c *Cluster) InvokeAsync(ctx context.Context, function string, payload []byte) error {
	_, err := c.LB.Invoke(ctx, &proto.InvokeRequest{Function: function, Payload: payload, Async: true})
	return err
}

// Reconcile forces one autoscaling pass on the leader, letting tests drive
// scaling deterministically.
func (c *Cluster) Reconcile() {
	if cp := c.Leader(); cp != nil {
		cp.Reconcile()
	}
}

// AwaitScale blocks until the function has at least n ready sandboxes.
func (c *Cluster) AwaitScale(function string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cp := c.Leader(); cp != nil {
			if ready, _ := cp.FunctionScale(function); ready >= n {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cluster: function %q did not reach scale %d within %v", function, n, timeout)
}

// KillCPLeader crashes the current control plane leader and returns its
// index, or -1 if there was no leader.
func (c *Cluster) KillCPLeader() int {
	for i, cp := range c.CPs {
		if cp.IsLeader() {
			cp.Stop()
			return i
		}
	}
	return -1
}

// KillDataPlane crashes data plane i.
func (c *Cluster) KillDataPlane(i int) { c.DPs[i].Stop() }

// RestartDataPlane recovers data plane i as a fresh replica (systemd
// restart in the paper's deployment): it re-registers with the control
// plane, which repopulates its function and endpoint caches, recalls any
// lease issued on the replica's async records while it was down, and
// assigns the replica a fresh queue epoch that out-fences the lessees.
func (c *Cluster) RestartDataPlane(i int) error {
	old := c.DPs[i]
	dp := dataplane.New(dataplane.Config{
		ID:             old.ID(),
		Addr:           old.Addr(),
		Transport:      c.Transport,
		ControlPlanes:  c.cpAddrs,
		MetricInterval: c.opts.MetricInterval,
		QueueTimeout:   c.opts.QueueTimeout,
		AsyncStore:     c.asyncDB,
		AsyncFnQuota:   c.opts.AsyncFnQuota,
		Metrics:        c.Metrics,
	})
	if err := dp.Start(); err != nil {
		return err
	}
	c.DPs[i] = dp
	return nil
}

// KillWorker crashes worker daemon i; the control plane detects the
// failure via missing heartbeats.
func (c *Cluster) KillWorker(i int) { c.Workers[i].Stop() }

// Shutdown stops every component.
func (c *Cluster) Shutdown() {
	if c.LB != nil {
		c.LB.Stop()
	}
	for _, dp := range c.DPs {
		dp.Stop()
	}
	for _, w := range c.Workers {
		w.Stop()
	}
	for _, cp := range c.CPs {
		cp.Stop()
	}
}

// ExecPayload encodes a requested function execution duration into an
// invocation payload understood by the handler from RegisterWorkload.
func ExecPayload(d time.Duration) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(d))
	return b
}

// DecodeExecPayload decodes a payload written by ExecPayload.
func DecodeExecPayload(b []byte) time.Duration {
	if len(b) < 8 {
		return 0
	}
	return time.Duration(binary.LittleEndian.Uint64(b))
}

// RegisterWorkload installs a handler for image that busy-waits for the
// duration encoded in the invocation payload, scaled by execScale — the
// analogue of the paper's SQRTSD-loop workload functions (§5.3).
func (c *Cluster) RegisterWorkload(image string, execScale float64) {
	clk := clock.NewReal()
	c.Images.Register(image, func(payload []byte) ([]byte, error) {
		d := time.Duration(float64(DecodeExecPayload(payload)) * execScale)
		if d > 0 {
			clk.Sleep(d)
		}
		return payload, nil
	})
}
