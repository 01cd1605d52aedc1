package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/telemetry"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Control plane failover: per-invocation slowdown over time (paper Fig. 11)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "faults",
		Title: "Data plane and worker failure recovery (paper §5.4)",
		Run:   runFaults,
	})
}

func liveOptions() cluster.Options {
	return cluster.Options{
		ControlPlanes:     3,
		DataPlanes:        3,
		Workers:           6,
		Runtime:           "containerd",
		LatencyScale:      0.02, // compress sandbox latencies 50x
		AutoscaleInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
		MetricInterval:    10 * time.Millisecond,
		NoDownscaleWindow: 2 * time.Second,
		QueueTimeout:      20 * time.Second,
	}
}

func liveFunction(name string) core.Function {
	fn := core.Function{
		Name:    name,
		Image:   "registry.local/" + name,
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	fn.Scaling.StableWindow = 5 * time.Second
	fn.Scaling.PanicWindow = 500 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = 2 * time.Second
	return fn
}

// measureDirigentRegistration times function registration on the live
// in-process cluster (used by the "registration" experiment).
func measureDirigentRegistration(n int) (first time.Duration, meanMs float64, total time.Duration, err error) {
	c, err := cluster.New(liveOptions())
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Shutdown()
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.RegisterFunction(liveFunction(fmt.Sprintf("reg-%d", i))); err != nil {
			return 0, 0, 0, err
		}
		if i == 0 {
			first = time.Since(t0)
		}
	}
	total = time.Since(start)
	meanMs = float64(total.Milliseconds()) / float64(n)
	return first, meanMs, total, nil
}

// runFig11 drives a steady invocation load against the live cluster,
// kills the control plane leader mid-run, and reports mean per-invocation
// slowdown per 250 ms bucket around the failure. Dirigent's expected
// behavior (paper §5.4): a brief spike for cold invocations buffered
// during failover, stabilizing within a couple of seconds because leader
// election + state reload take ~10 ms and sandbox state merges from
// workers.
func runFig11(w io.Writer, scale float64) error {
	c, err := cluster.New(liveOptions())
	if err != nil {
		return err
	}
	defer c.Shutdown()

	const fns = 6
	exec := 40 * time.Millisecond
	for i := 0; i < fns; i++ {
		fn := liveFunction(fmt.Sprintf("ft-%d", i))
		if err := c.RegisterFunction(fn); err != nil {
			return err
		}
		c.RegisterWorkload(fn.Image, 1.0)
	}

	runFor := time.Duration(float64(12*time.Second) * scale)
	if runFor < 4*time.Second {
		runFor = 4 * time.Second
	}
	failAt := runFor / 3

	type obs struct {
		at       time.Duration
		slowdown float64
	}
	var mu sync.Mutex
	var observations []obs
	var wg sync.WaitGroup
	start := time.Now()
	rng := rand.New(rand.NewSource(7))

	stop := make(chan struct{})
	for i := 0; i < fns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Duration(20+rng.Intn(30)) * time.Millisecond):
				}
				arrival := time.Since(start)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, err := c.Invoke(ctx, fmt.Sprintf("ft-%d", i), cluster.ExecPayload(exec))
				cancel()
				if err != nil {
					continue
				}
				e2e := time.Since(start) - arrival
				mu.Lock()
				observations = append(observations, obs{at: arrival, slowdown: float64(e2e) / float64(exec)})
				mu.Unlock()
			}
		}(i)
	}

	time.Sleep(failAt)
	killStart := time.Now()
	c.KillCPLeader()
	// Measure leader re-election latency.
	var electionTime time.Duration
	for {
		if c.Leader() != nil {
			electionTime = time.Since(killStart)
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(runFor - failAt)
	close(stop)
	wg.Wait()

	// Bucket slowdowns per 250 ms.
	buckets := make(map[int][]float64)
	mu.Lock()
	for _, o := range observations {
		buckets[int(o.at/(250*time.Millisecond))] = append(buckets[int(o.at/(250*time.Millisecond))], o.slowdown)
	}
	mu.Unlock()

	t := newTable("time_s", "mean_slowdown", "max_slowdown", "n")
	maxBucket := int(runFor / (250 * time.Millisecond))
	for b := 0; b <= maxBucket; b++ {
		vals := buckets[b]
		if len(vals) == 0 {
			continue
		}
		st := telemetry.ComputeStats(vals)
		t.addRow(fmt.Sprintf("%.2f", float64(b)*0.25), st.Avg, st.Max, st.N)
	}
	t.write(w)
	fmt.Fprintf(w, "# Leader killed at t=%.2fs; new leader elected in %v.\n", failAt.Seconds(), electionTime.Round(time.Millisecond))
	fmt.Fprintln(w, "# Expected shape: slowdown spikes briefly at the failure point and re-stabilizes")
	fmt.Fprintln(w, "# within ~1-2s; warm invocations are unaffected throughout.")
	return nil
}

// runFaults reproduces the §5.4 data plane and worker failure experiments
// on the live cluster, reporting recovery times and slowdown impact.
func runFaults(w io.Writer, scale float64) error {
	_ = scale

	// --- Data plane failure ---
	c, err := cluster.New(liveOptions())
	if err != nil {
		return err
	}
	fn := liveFunction("dp-victim")
	if err := c.RegisterFunction(fn); err != nil {
		c.Shutdown()
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if _, err := c.Invoke(ctx, "dp-victim", nil); err != nil {
		cancel()
		c.Shutdown()
		return err
	}
	cancel()

	killStart := time.Now()
	c.KillDataPlane(0)
	// Recovery: restart the replica (systemd in the paper) and wait until
	// it serves again through re-registration and cache sync.
	if err := c.RestartDataPlane(0); err != nil {
		c.Shutdown()
		return err
	}
	var dpRecovery time.Duration
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := c.Transport.Call(ctx, c.DPs[0].Addr(), "dp.Invoke",
			invokePayload("dp-victim"))
		cancel()
		if err == nil {
			dpRecovery = time.Since(killStart)
			break
		}
		if time.Since(killStart) > 30*time.Second {
			c.Shutdown()
			return fmt.Errorf("data plane did not recover")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Shutdown()

	// --- Worker failure ---
	opts := liveOptions()
	opts.Workers = 6
	c2, err := cluster.New(opts)
	if err != nil {
		return err
	}
	defer c2.Shutdown()
	wfn := liveFunction("w-victim")
	wfn.Scaling.MinScale = 6
	if err := c2.RegisterFunction(wfn); err != nil {
		return err
	}
	c2.RegisterWorkload(wfn.Image, 1.0)
	if err := c2.AwaitScale("w-victim", 6, 20*time.Second); err != nil {
		return err
	}
	exec := 30 * time.Millisecond
	slowdowns := telemetry.NewExactHistogram()
	// Fail half the workers (the paper fails 47/93) and keep invoking.
	for i := 0; i < opts.Workers/2; i++ {
		c2.KillWorker(i)
	}
	wkill := time.Now()
	for time.Since(wkill) < 3*time.Second {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		t0 := time.Now()
		_, err := c2.Invoke(ctx, "w-victim", cluster.ExecPayload(exec))
		cancel()
		if err == nil {
			slowdowns.ObserveMs(float64(time.Since(t0)) / float64(exec))
		}
		time.Sleep(10 * time.Millisecond)
	}

	t := newTable("scenario", "metric", "value")
	t.addRow("data plane failure", "recovery_time", dpRecovery.Round(time.Millisecond).String())
	t.addRow("worker failure (half the fleet)", "peak_slowdown", slowdowns.Max())
	t.addRow("worker failure (half the fleet)", "p50_slowdown", slowdowns.Percentile(50))
	t.write(w)
	fmt.Fprintln(w, "# Expected shape: data plane recovery within ~2s (vs 15s for Knative/Istio);")
	fmt.Fprintln(w, "# worker failures cause a modest slowdown spike (~2.7 peak in the paper, 10x below Knative)")
	fmt.Fprintln(w, "# because replacement sandboxes spin up on surviving nodes immediately.")
	return nil
}

func invokePayload(fn string) []byte {
	req := proto.InvokeRequest{Function: fn}
	return req.Marshal()
}
