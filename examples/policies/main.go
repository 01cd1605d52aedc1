// Scheduling policies: Dirigent runs Knative's defaults across the three
// scheduling dimensions — autoscaling (KPA), placement (least-allocated
// and balanced) and load balancing (least-loaded) — and, as §4 of the
// paper notes, alternatives plug in behind the same interfaces:
// placement.Policy for the control plane's placer and
// loadbalancer.Policy for the data plane's warm pick. The library ships
// kube-default and cache-aware placement (the warmth experiment compares
// them); Hermod- or CH-RLU-style policies are written against the same
// interfaces, like the first-fit placer below. This example boots a
// cluster per placer and shows how sandboxes spread across workers.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
	"dirigent/internal/placement"
)

// pack is a custom placer: first fit in node-ID order, so sandboxes fill
// one worker before spilling onto the next.
type pack struct{}

func (pack) Place(candidates []placement.NodeStatus, req placement.Requirements) (core.NodeID, error) {
	best := core.NodeID(0)
	for _, c := range candidates {
		fits := c.Util.CPUMilliUsed+req.CPUMilli <= c.Node.CPUMilli &&
			c.Util.MemoryMBUsed+req.MemoryMB <= c.Node.MemoryMB
		if fits && (best == 0 || c.Node.ID < best) {
			best = c.Node.ID
		}
	}
	if best == 0 {
		return 0, placement.ErrNoCapacity
	}
	return best, nil
}

func run(name string, placer placement.Policy) {
	c, err := cluster.New(cluster.Options{
		ControlPlanes:     1,
		DataPlanes:        1,
		Workers:           4,
		LatencyScale:      0,
		AutoscaleInterval: 20 * time.Millisecond,
		MetricInterval:    10 * time.Millisecond,
		Placer:            placer,
	})
	if err != nil {
		log.Fatalf("boot cluster: %v", err)
	}
	defer c.Shutdown()

	// One sandbox of "first" pulls the shared image onto one worker, and
	// a heartbeat reports it in that worker's cache digest. "spread",
	// pinned to 8 sandboxes of the same image, then shows where each
	// placer puts the rest.
	for _, f := range []struct {
		name  string
		scale int
	}{{"first", 1}, {"spread", 8}} {
		fn := core.Function{
			Name:    f.name,
			Image:   "registry.local/shared",
			Port:    8080,
			Scaling: core.DefaultScalingConfig(),
		}
		fn.Scaling.MinScale = f.scale
		if err := c.RegisterFunction(fn); err != nil {
			log.Fatalf("register: %v", err)
		}
		if err := c.AwaitScale(f.name, f.scale, 20*time.Second); err != nil {
			log.Fatalf("scale: %v", err)
		}
		for _, w := range c.Workers {
			w.SendHeartbeat()
		}
	}

	fmt.Printf("%-14s sandbox distribution across workers: ", name)
	for i, w := range c.Workers {
		if i > 0 {
			fmt.Print(" / ")
		}
		fmt.Printf("w%d=%d", i, w.SandboxCount())
	}
	fmt.Println()

	// Drive a few invocations so the load balancer exercises the spread.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 16; i++ {
		if _, err := c.Invoke(ctx, "spread", nil); err != nil {
			log.Fatalf("invoke: %v", err)
		}
	}
}

func main() {
	fmt.Println("Placement policy comparison (1 + 8 sandboxes of one image over 4 workers):")
	run("kube-default", placement.NewKubeDefault(1))
	run("cache-aware", placement.NewCacheAware(1))
	run("pack", pack{})
	fmt.Println()
	fmt.Println("kube-default spreads; cache-aware follows the image to the worker that")
	fmt.Println("already pulled it; pack fills the lowest-ID worker first. A placer is a")
	fmt.Println("cluster.Options.Placer (controlplane.Config.Placer) value, a load balancer")
	fmt.Println("a dataplane.Config.Balancer: implement placement.Policy or loadbalancer.Policy.")
}
