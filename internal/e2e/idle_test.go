package e2e

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/proto"
	"dirigent/internal/race"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// maxHeapBytesPerIdleFunction is what one registered function that is
// never invoked may keep on the heap of a cluster of one control plane and
// idleDataPlanes data planes, every tier's copy of it and the store's
// included. Before idle functions dropped their autoscaler window it read
// about 2.7 KB.
const maxHeapBytesPerIdleFunction = 1600

const (
	idleDataPlanes = 3
	// idleMetricInterval is long on the virtual clock, which costs the test
	// nothing, because it also sets a report call's wall-clock deadline
	// (four periods): a full report of 8 192 functions under the race
	// detector must not time out and be sent again.
	idleMetricInterval = time.Second
)

// idleCluster is a control plane and idleDataPlanes data planes on one
// virtual clock, with no worker: nothing it registers can run, and
// nothing is invoked. Time passes only through tick.
type idleCluster struct {
	tr  *transport.InProc
	clk *clock.Virtual
	cp  *controlplane.ControlPlane
	dps []*dataplane.DataPlane
}

func startIdleCluster(t *testing.T) *idleCluster {
	t.Helper()
	c := &idleCluster{tr: transport.NewInProc(), clk: clock.NewVirtual(time.Unix(1_000_000, 0))}
	const cpAddr = "cp:7000"
	c.cp = controlplane.New(controlplane.Config{
		Addr:              cpAddr,
		Transport:         c.tr,
		DB:                store.NewMemory(),
		Clock:             c.clk,
		AutoscaleInterval: time.Hour, // ticks are explicit Reconcile calls
		HeartbeatTimeout:  time.Hour,
	})
	if err := c.cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.cp.Stop)
	for i := 0; i < idleDataPlanes; i++ {
		dp := dataplane.New(dataplane.Config{
			ID:                core.DataPlaneID(i + 1),
			Addr:              fmt.Sprintf("dp%d:8000", i),
			Transport:         c.tr,
			ControlPlanes:     []string{cpAddr},
			Clock:             c.clk,
			MetricInterval:    idleMetricInterval,
			HeartbeatInterval: time.Hour,
		})
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
		c.dps = append(c.dps, dp)
	}
	return c
}

// register registers n functions at zero scale.
func (c *idleCluster) register(t *testing.T, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < n; i++ {
		fn := core.Function{Name: fmt.Sprintf("fn-%05d", i), Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
		if _, err := c.tr.Call(ctx, c.cp.Addr(), proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
			t.Fatal(err)
		}
	}
}

// tick lets one metric period pass, waits until every data plane has sent
// its report for it, and runs the control plane's autoscale pass.
func (c *idleCluster) tick(t *testing.T) {
	t.Helper()
	c.awaitArmed(t) // every data plane waits for its next period
	c.clk.Advance(idleMetricInterval)
	c.awaitArmed(t) // and has sent the one that just ended
	c.cp.Reconcile()
}

// awaitArmed waits until each data plane's metric and heartbeat timers are
// both armed.
func (c *idleCluster) awaitArmed(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.clk.PendingTimers() != 2*len(c.dps); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers pending, want %d", c.clk.PendingTimers(), 2*len(c.dps))
		}
	}
}

// TestIdleFunctionsCostNothing registers functions nobody invokes and lets
// 100 ticks pass: no function joins an active set, the control plane's
// sweep takes no decision, and the data planes' reports collect the
// metrics of idle functions only in their full reports, two in 100
// periods. It counts the work and does not time it.
func TestIdleFunctionsCostNothing(t *testing.T) {
	for _, n := range []int{256, 8192} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c := startIdleCluster(t)
			c.register(t, n)
			c.tick(t) // the first period after Start reports in full
			_, stepsBefore := c.cp.ActiveFunctions()
			pollsBefore := make([]uint64, len(c.dps))
			for i, dp := range c.dps {
				_, pollsBefore[i] = dp.ActiveFunctions()
			}
			const ticks = 100
			for i := 0; i < ticks; i++ {
				c.tick(t)
				if active, _ := c.cp.ActiveFunctions(); active != 0 {
					t.Fatalf("tick %d: %d functions active on the control plane, want 0", i, active)
				}
				for j, dp := range c.dps {
					if active, _ := dp.ActiveFunctions(); active != 0 {
						t.Fatalf("tick %d: %d functions active on data plane %d, want 0", i, active, j+1)
					}
				}
			}
			if _, steps := c.cp.ActiveFunctions(); steps != stepsBefore {
				t.Errorf("%d ticks over %d idle functions took %d scaling decisions, want 0", ticks, n, steps-stepsBefore)
			}
			// Periods 2 to 101 after Start hold the full reports of periods
			// 50 and 100 (fullReportEvery).
			const fullReports = 2
			for i, dp := range c.dps {
				if _, polls := dp.ActiveFunctions(); polls-pollsBefore[i] > fullReports*uint64(n) {
					t.Errorf("data plane %d collected %d metrics in %d periods, want at most %d (its full reports)",
						i+1, polls-pollsBefore[i], ticks, fullReports*n)
				}
			}
		})
	}
}

// TestIdleFunctionHeap is the heap gate for registered functions nobody
// invokes, on TestIdleFunctionsCostNothing's cluster: the live heap a
// function adds, every tier's state and the control plane's store
// included, after the cluster has ticked past its first full reports.
func TestIdleFunctionHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes heap sizes")
	}
	const n = 8192
	c := startIdleCluster(t)
	c.tick(t)
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	c.register(t, n)
	for i := 0; i < 5; i++ {
		c.tick(t)
	}
	after := liveHeap()
	perFn := (float64(after) - float64(before)) / n
	t.Logf("live heap %d → %d B for %d idle functions: %.0f B each", before, after, n, perFn)
	if perFn > maxHeapBytesPerIdleFunction {
		t.Errorf("an idle function keeps %.0f B of live heap, want at most %d", perFn, maxHeapBytesPerIdleFunction)
	}
	runtime.KeepAlive(c)
}
