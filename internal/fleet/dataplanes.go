package fleet

import (
	"fmt"
	"sync"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// The worker fleet's sibling for the data plane tier: a set of real
// dataplane.DataPlane replicas managed as one unit, so multi-replica
// experiments (front-end failover, fan-out pruning, async-queue
// sharding) can stand up N replicas, kill a fraction mid-burst, and
// observe the control plane and front end converge. Unlike the emulated
// workers these are the real component — the point of the harness is the
// replicas' own behavior, not their scale.

// DataPlanesConfig parameterizes a managed data plane replica set.
type DataPlanesConfig struct {
	// Count is the number of replicas (default 3).
	Count int
	// Transport carries RPCs for every replica.
	Transport transport.Transport
	// ControlPlanes are the CP replica addresses.
	ControlPlanes []string
	// Loopback makes every replica listen on 127.0.0.1:0 (real TCP,
	// ports resolved at bind time). When false, replicas use synthetic
	// in-process addresses in the 10.88.0.0/16 range.
	Loopback bool
	// Persistent gives each replica its own in-memory async store, so
	// accepted async invocations survive a Stop/restart of the replica
	// and killing a replica exercises the durable-queue path.
	Persistent bool
	// SharedStore makes every replica persist async records into the
	// same store (the shared-database layout lease failover needs:
	// records are owner-prefixed, so survivors can drain a dead
	// replica's records in place). Overrides Persistent.
	SharedStore *store.Store
	// MetricInterval / HeartbeatInterval / QueueTimeout tune each
	// replica; zero selects dataplane defaults.
	MetricInterval    time.Duration
	HeartbeatInterval time.Duration
	QueueTimeout      time.Duration
	// Metrics, when set, is shared by every replica so a harness can read
	// tier-wide counters (async accepted/completed, cold-start queueing)
	// from one registry. Nil gives each replica a private registry.
	Metrics *telemetry.Registry
}

func (c DataPlanesConfig) withDefaults() DataPlanesConfig {
	if c.Count <= 0 {
		c.Count = 3
	}
	return c
}

// DataPlanes is a managed set of data plane replicas.
type DataPlanes struct {
	cfg    DataPlanesConfig
	dpCfgs []dataplane.Config
	dps    []*dataplane.DataPlane
	stores []*store.Store
}

// NewDataPlanes builds the replicas without starting them.
func NewDataPlanes(cfg DataPlanesConfig) *DataPlanes {
	cfg = cfg.withDefaults()
	d := &DataPlanes{cfg: cfg}
	for i := 0; i < cfg.Count; i++ {
		id := i + 1
		addr := "127.0.0.1:0"
		if !cfg.Loopback {
			addr = fmt.Sprintf("10.88.%d.%d:8000", id/256, id%256)
		}
		db := cfg.SharedStore
		if db == nil && cfg.Persistent {
			db = store.NewMemory()
		}
		d.stores = append(d.stores, db)
		dpCfg := dataplane.Config{
			ID:                core.DataPlaneID(id),
			Addr:              addr,
			Transport:         cfg.Transport,
			ControlPlanes:     cfg.ControlPlanes,
			MetricInterval:    cfg.MetricInterval,
			HeartbeatInterval: cfg.HeartbeatInterval,
			QueueTimeout:      cfg.QueueTimeout,
			AsyncStore:        db,
			Metrics:           cfg.Metrics,
		}
		d.dpCfgs = append(d.dpCfgs, dpCfg)
		d.dps = append(d.dps, dataplane.New(dpCfg))
	}
	return d
}

// Start launches every replica concurrently (registration storm against
// the control plane's DP registry). It returns the first start error.
func (d *DataPlanes) Start() error {
	errs := make([]error, len(d.dps))
	var wg sync.WaitGroup
	for i, dp := range d.dps {
		wg.Add(1)
		go func(i int, dp *dataplane.DataPlane) {
			defer wg.Done()
			errs[i] = dp.Start()
		}(i, dp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DPs returns the replicas in ID order.
func (d *DataPlanes) DPs() []*dataplane.DataPlane { return d.dps }

// Addrs returns every replica's RPC address. With Loopback, addresses
// are only valid after Start (ports bind at listen time) — which is why
// dataplane.Addr would return ":0" before; dataplane keeps its
// configured address, so loopback sets should pass Addrs to consumers
// only post-Start.
func (d *DataPlanes) Addrs() []string {
	addrs := make([]string, len(d.dps))
	for i, dp := range d.dps {
		addrs[i] = dp.Addr()
	}
	return addrs
}

// Store returns replica i's async store (nil without Persistent).
func (d *DataPlanes) Store(i int) *store.Store { return d.stores[i] }

// StopFraction crashes the first ⌈frac·Count⌉ replicas simultaneously —
// a correlated data plane failure. In-flight requests inside the victims
// fail over at the front end; the control plane prunes the victims from
// its fan-out set by heartbeat timeout; persisted async tasks on the
// victims are leased to the surviving replicas once the prune lands
// (with SharedStore — with per-replica stores they wait for a Restart).
// Returns the stopped replicas' indices.
func (d *DataPlanes) StopFraction(frac float64) []int {
	n := int(float64(len(d.dps))*frac + 0.999999)
	if n > len(d.dps) {
		n = len(d.dps)
	}
	var wg sync.WaitGroup
	victims := make([]int, 0, n)
	for i := 0; i < n; i++ {
		victims = append(victims, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.dps[i].Stop()
		}(i)
	}
	wg.Wait()
	return victims
}

// StopOne crashes replica i — e.g. the replica a harness observed
// serving a function's home, so a kill provably lands on live traffic.
func (d *DataPlanes) StopOne(i int) {
	d.dps[i].Stop()
}

// Restart brings replica i back as a fresh incarnation on the same ID
// and store — the paper's §3.4.2 restart path. With a shared store the
// revival also recalls any lease the CP issued on the replica's records
// while it was down. Returns the restart error.
func (d *DataPlanes) Restart(i int) error {
	dp := dataplane.New(d.dpCfgs[i])
	if err := dp.Start(); err != nil {
		return err
	}
	d.dps[i] = dp
	return nil
}

// Stop crashes every replica.
func (d *DataPlanes) Stop() {
	d.StopFraction(1)
}
