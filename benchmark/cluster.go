package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/dataplane"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

// The shared cluster shape. The loop periods are the internal/cluster
// values; the failure detectors are not: the benchmark injects no faults,
// so none of them may fire while the host stalls the process (PR 11's run
// failed because a 500 ms worker detector did, see README.md).
const (
	numDataPlanes = 3
	numWorkers    = 8

	autoscaleInterval = 50 * time.Millisecond
	metricInterval    = 20 * time.Millisecond
	queueTimeout      = 30 * time.Second
	heartbeatTimeout  = 10 * time.Second
	// Zero means 60 s in controlplane.Config, not off.
	noDownscaleWindow = time.Millisecond

	// Capacity never binds: placement is timed, not bin packing.
	workerCPUMilli = 1_000_000
	workerMemoryMB = 4_000_000

	functionImage = "bench/echo"
	functionPort  = 8080
)

// countingDB counts the durable writes the control plane makes, so a run
// can show that its cold starts made none (design principle 2).
type countingDB struct {
	controlplane.DB
	writes atomic.Int64
}

func (d *countingDB) HSet(hash, field string, value []byte) error {
	d.writes.Add(1)
	return d.DB.HSet(hash, field, value)
}

func (d *countingDB) HDel(hash, field string) error {
	d.writes.Add(1)
	return d.DB.HDel(hash, field)
}

// cluster is one live Dirigent cluster assembled from the exported
// constructors: 1 control plane on an in-memory store, 3 data planes,
// 8 workers and one front end. internal/cluster is not used because it
// hard-wires its transport and cannot be handed the tracing wrappers.
type cluster struct {
	tcp     *transport.TCP // nil on the in-process transport
	cp      *controlplane.ControlPlane
	dps     []*dataplane.DataPlane
	workers []*worker.Worker
	lb      *frontend.LB
	client  *cpclient.Client
	db      *countingDB
}

// startCluster builds and starts a cluster. With a recorder every
// component talks through its own tier-naming wrapper of the one shared
// transport and the echo handler is wrapped in a span; without one the
// components get the transport itself.
func startCluster(tcp bool, rec *recorder) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	var base transport.Transport
	if tcp {
		c.tcp = transport.NewTCP()
		base = c.tcp
	} else {
		base = transport.NewInProc()
	}
	via := func(t tier, node int) transport.Transport {
		if rec == nil {
			return base
		}
		return &tracedTransport{inner: base, rec: rec, tier: t, node: node}
	}
	// In-process addresses are names; TCP ones are loopback ports found by
	// listening on :0 and closing again, as internal/e2e does.
	addr := func(name string) (string, error) {
		if !tcp {
			return name, nil
		}
		probe, err := base.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) { return nil, nil })
		if err != nil {
			return "", err
		}
		defer probe.Close()
		return probe.Addr(), nil
	}

	cpAddr, err := addr("cp0:7000")
	if err != nil {
		return c, err
	}
	cpAddrs := []string{cpAddr}
	c.db = &countingDB{DB: store.NewMemory()}
	c.cp = controlplane.New(controlplane.Config{
		Addr:              cpAddr,
		Transport:         via(tierControlPlane, 0),
		DB:                c.db,
		AutoscaleInterval: autoscaleInterval,
		HeartbeatTimeout:  heartbeatTimeout,
		NoDownscaleWindow: noDownscaleWindow,
	})
	if err := c.cp.Start(); err != nil {
		return c, err
	}
	c.client = cpclient.New(base, cpAddrs)

	var dpAddrs []string
	for i := 0; i < numDataPlanes; i++ {
		a, err := addr(fmt.Sprintf("dp%d:8000", i))
		if err != nil {
			return c, err
		}
		dp := dataplane.New(dataplane.Config{
			ID:             core.DataPlaneID(i + 1),
			Addr:           a,
			Transport:      via(tierDataPlane, i),
			ControlPlanes:  cpAddrs,
			MetricInterval: metricInterval,
			QueueTimeout:   queueTimeout,
		})
		if err := dp.Start(); err != nil {
			return c, err
		}
		c.dps = append(c.dps, dp)
		dpAddrs = append(dpAddrs, a)
	}

	// The handler echoes the payload and takes no time, so what a client
	// waits for is scheduling latency alone.
	echo := worker.Handler(func(p []byte) ([]byte, error) { return p, nil })
	if rec != nil {
		echo = rec.wrapHandler(echo)
	}
	images := worker.NewImageRegistry()
	images.Register(functionImage, echo)
	for i := 0; i < numWorkers; i++ {
		a, err := addr(fmt.Sprintf("10.0.0.%d:9000", i+1))
		if err != nil {
			return c, err
		}
		ip, port, err := splitHostPort(a)
		if err != nil {
			return c, err
		}
		// LatencyScale 0 and a prefetched image take the sleep-based
		// sandbox model out of the path: the cluster manager is timed.
		cache := sandbox.NewImageCache()
		cache.Prefetch(functionImage)
		w := worker.New(worker.Config{
			Node: core.WorkerNode{
				ID: core.NodeID(i + 1), Name: fmt.Sprintf("worker-%d", i),
				IP: ip, Port: port, CPUMilli: workerCPUMilli, MemoryMB: workerMemoryMB,
			},
			Addr: a,
			Runtime: sandbox.NewContainerd(sandbox.Config{
				LatencyScale: 0,
				NodeIP:       [4]byte{10, 0, 0, byte(i + 1)},
				Images:       cache,
				Seed:         int64(i + 1),
			}),
			Transport:         via(tierWorker, i),
			ControlPlanes:     cpAddrs,
			HeartbeatInterval: heartbeatTimeout / 4,
			Images:            images,
			Cache:             cache,
		})
		if err := w.Start(); err != nil {
			return c, err
		}
		c.workers = append(c.workers, w)
	}

	c.lb = frontend.New(frontend.Config{
		Transport:          via(tierFrontend, 0),
		DataPlanes:         dpAddrs,
		ControlPlanes:      cpAddrs,
		MembershipInterval: heartbeatTimeout / 4,
		FailureCooldown:    200 * time.Millisecond,
		RequestTimeout:     2 * queueTimeout,
	})
	return c, c.lb.Start()
}

func splitHostPort(addr string) (string, uint16, error) {
	host, p, err := net.SplitHostPort(addr)
	if err != nil {
		return "", 0, err
	}
	port, err := strconv.ParseUint(p, 10, 16)
	return host, uint16(port), err
}

// register registers fns one by one through the end-user API.
func (c *cluster) register(fns []core.Function) error {
	for i := range fns {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := c.client.Call(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fns[i]))
		cancel()
		if err != nil {
			return fmt.Errorf("register %s: %w", fns[i].Name, err)
		}
	}
	return nil
}

// awaitEndpoints waits until every data plane has learned a ready
// sandbox for every function in fns.
func (c *cluster) awaitEndpoints(fns []core.Function, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, dp := range c.dps {
		for i := range fns {
			for dp.EndpointCount(fns[i].Name) == 0 {
				if time.Now().After(deadline) {
					return fmt.Errorf("data plane %d has no endpoint for %s after %v", dp.ID(), fns[i].Name, timeout)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return nil
}

// stop stops every component that was started and waits for its
// goroutines; it is safe on a partly built cluster.
func (c *cluster) stop() {
	if c.lb != nil {
		c.lb.Stop()
	}
	for _, dp := range c.dps {
		dp.Stop()
	}
	for _, w := range c.workers {
		w.Stop()
	}
	if c.cp != nil {
		c.cp.Stop()
	}
	if c.tcp != nil {
		c.tcp.Close()
	}
}
