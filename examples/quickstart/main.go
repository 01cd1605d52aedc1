// Quickstart: boot a complete in-process Dirigent cluster (3 control
// plane replicas sharing a Raft log, each applying it to its own store,
// 2 data planes, 3 workers), register a function, and invoke it cold and
// warm — the end-user API from Table 2 of the paper.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
)

func main() {
	fmt.Println("Booting Dirigent cluster: 3x control plane, 2x data plane, 3x workers...")
	c, err := cluster.New(cluster.Options{
		ControlPlanes:     3,
		DataPlanes:        2,
		Workers:           3,
		Runtime:           "containerd",
		LatencyScale:      0.1, // compress simulated sandbox latencies 10x
		AutoscaleInterval: 50 * time.Millisecond,
		MetricInterval:    20 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("boot cluster: %v", err)
	}
	defer c.Shutdown()
	fmt.Printf("Cluster up; control plane leader: %s\n\n", c.Leader().Addr())

	// Register a function: name + container image + port, exactly like
	// AWS Lambda or Knative registration.
	fn := core.Function{
		Name:    "hello",
		Image:   "registry.local/hello:latest",
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	fn.Scaling.StableWindow = 5 * time.Second
	start := time.Now()
	if err := c.RegisterFunction(fn); err != nil {
		log.Fatalf("register: %v", err)
	}
	fmt.Printf("Registered %q in %v (persist spec + push metadata to data planes)\n",
		fn.Name, time.Since(start).Round(time.Microsecond))

	// Install the function body: echo with a twist.
	c.Images.Register(fn.Image, func(payload []byte) ([]byte, error) {
		return append([]byte("hello, "), payload...), nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First invocation: cold start. The data plane buffers the request,
	// the autoscaler spins up a sandbox, the worker reports it ready, and
	// the queue drains — no persistent state touched on this whole path.
	t0 := time.Now()
	resp, err := c.Invoke(ctx, "hello", []byte("world"))
	if err != nil {
		log.Fatalf("invoke: %v", err)
	}
	fmt.Printf("\nCold start: %q in %v (cold=%v, scheduling=%.2fms)\n",
		resp.Body, time.Since(t0).Round(time.Millisecond), resp.ColdStart,
		float64(resp.SchedulingLatencyUs)/1000)

	// Subsequent invocations ride the warm sandbox.
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		resp, err = c.Invoke(ctx, "hello", []byte(fmt.Sprintf("again #%d", i+1)))
		if err != nil {
			log.Fatalf("invoke: %v", err)
		}
		fmt.Printf("Warm start: %q in %v (cold=%v)\n",
			resp.Body, time.Since(t0).Round(time.Microsecond), resp.ColdStart)
	}

	ready, creating := c.Leader().FunctionScale("hello")
	fmt.Printf("\nFunction scale: %d ready, %d creating\n", ready, creating)
	fmt.Println("Done.")
}
