package workflow_test

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
	"dirigent/internal/workflow"
)

// These tests run the orchestrator against a real in-process cluster —
// replicated control plane, data planes, workers, front-end LB — rather
// than the fake invoker in workflow_test.go, so every step goes through
// the data plane's queueing, load balancing, and cold-start machinery.

func liveCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		ControlPlanes:     3,
		DataPlanes:        2,
		Workers:           3,
		AutoscaleInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		MetricInterval:    10 * time.Millisecond,
		NoDownscaleWindow: 100 * time.Millisecond,
		QueueTimeout:      5 * time.Second,
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// registerStep registers a function whose handler transforms the payload,
// so step outputs record which functions ran and in what order.
func registerStep(t *testing.T, c *cluster.Cluster, name string, handler func([]byte) ([]byte, error)) {
	t.Helper()
	fn := core.Function{
		Name:    name,
		Image:   "registry.local/" + name + ":latest",
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	fn.Scaling.StableWindow = 2 * time.Second
	fn.Scaling.PanicWindow = 200 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = time.Second
	if err := c.RegisterFunction(fn); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	c.Images.Register(fn.Image, handler)
}

func tagStep(suffix string) func([]byte) ([]byte, error) {
	return func(payload []byte) ([]byte, error) {
		return append(append([]byte{}, payload...), []byte(suffix)...), nil
	}
}

// lbInvoker satisfies workflow.Invoker over the cluster's front-end LB,
// the adapter a deployment's orchestrator-in-the-data-plane would use.
type lbInvoker struct{ c *cluster.Cluster }

func (i lbInvoker) Invoke(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	resp, err := i.c.Invoke(ctx, fn, payload)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// TestWorkflowChainLive runs a three-step chain where every step cold
// starts through the real data plane, checking outputs thread through in
// dependency order.
func TestWorkflowChainLive(t *testing.T) {
	c := liveCluster(t)
	registerStep(t, c, "wf-a", tagStep("|a"))
	registerStep(t, c, "wf-b", tagStep("|b"))
	registerStep(t, c, "wf-c", tagStep("|c"))

	wf := &workflow.Workflow{Name: "chain", Steps: []workflow.Step{
		{Name: "a", Function: "wf-a"},
		{Name: "b", Function: "wf-b", After: []string{"a"}},
		{Name: "c", Function: "wf-c", After: []string{"b"}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := workflow.NewOrchestrator(lbInvoker{c}).Execute(ctx, wf, []byte("in"))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if got := string(res.Outputs["c"]); got != "in|a|b|c" {
		t.Fatalf("chain output = %q, want %q", got, "in|a|b|c")
	}
}

// TestWorkflowFanOutFanInLive runs a diamond: one root fans out to three
// concurrent branches whose outputs a join step receives concatenated in
// After order.
func TestWorkflowFanOutFanInLive(t *testing.T) {
	c := liveCluster(t)
	registerStep(t, c, "wf-root", func([]byte) ([]byte, error) { return []byte("R|"), nil })
	registerStep(t, c, "wf-l", tagStep("L;"))
	registerStep(t, c, "wf-m", tagStep("M;"))
	registerStep(t, c, "wf-r", tagStep("R;"))
	registerStep(t, c, "wf-join", func(payload []byte) ([]byte, error) {
		return append(append([]byte{}, payload...), []byte("join")...), nil
	})

	wf := &workflow.Workflow{Name: "diamond", Steps: []workflow.Step{
		{Name: "root", Function: "wf-root"},
		{Name: "l", Function: "wf-l", After: []string{"root"}},
		{Name: "m", Function: "wf-m", After: []string{"root"}},
		{Name: "r", Function: "wf-r", After: []string{"root"}},
		{Name: "join", Function: "wf-join", After: []string{"l", "m", "r"}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := workflow.NewOrchestrator(lbInvoker{c}).Execute(ctx, wf, nil)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	want := "R|L;R|M;R|R;join"
	if got := string(res.Outputs["join"]); got != want {
		t.Fatalf("join output = %q, want %q", got, want)
	}
}

// TestWorkflowBranchSurvivesEndpointDrain kills the only worker hosting
// one branch's sandbox while the workflow is executing, before that branch
// is dispatched: a gate step holds the branch back so its invoke is
// guaranteed to hit the dead endpoint. The data plane must absorb the
// drain — retry the stale endpoint, queue the invocation as a cold start,
// and re-dispatch once the control plane detects the crash and re-places
// the function — so the workflow completes without the orchestrator ever
// seeing an error.
func TestWorkflowBranchSurvivesEndpointDrain(t *testing.T) {
	c := liveCluster(t)

	registerStep(t, c, "wf-gate", func(payload []byte) ([]byte, error) {
		time.Sleep(250 * time.Millisecond)
		return append(append([]byte{}, payload...), []byte("gate;")...), nil
	})
	registerStep(t, c, "wf-other", func([]byte) ([]byte, error) { return []byte("other;"), nil })
	registerStep(t, c, "wf-tail", tagStep("tail"))

	// Pin one warm wf-slow sandbox and record which worker hosts it while
	// it is the only sandbox in the cluster (the other steps scale from
	// zero and have not been invoked yet), so the kill below is guaranteed
	// to drain the branch's only endpoint.
	var slowRuns atomic.Int32
	slow := core.Function{
		Name:    "wf-slow",
		Image:   "registry.local/wf-slow:latest",
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	slow.Scaling.MinScale = 1
	slow.Scaling.StableWindow = time.Hour // no churn mid-test
	if err := c.RegisterFunction(slow); err != nil {
		t.Fatalf("register wf-slow: %v", err)
	}
	c.Images.Register(slow.Image, func(payload []byte) ([]byte, error) {
		slowRuns.Add(1)
		return append(append([]byte{}, payload...), []byte("slow;")...), nil
	})
	if err := c.AwaitScale("wf-slow", 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	host := -1
	for i, w := range c.Workers {
		if w.SandboxCount() > 0 {
			host = i
			break
		}
	}
	if host < 0 {
		t.Fatal("no worker hosts the wf-slow sandbox")
	}

	wf := &workflow.Workflow{Name: "drain", Steps: []workflow.Step{
		{Name: "gate", Function: "wf-gate"},
		{Name: "slow", Function: "wf-slow", After: []string{"gate"}},
		{Name: "other", Function: "wf-other"},
		{Name: "tail", Function: "wf-tail", After: []string{"slow", "other"}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	done := make(chan struct{})
	var res *workflow.Result
	var execErr error
	go func() {
		defer close(done)
		res, execErr = workflow.NewOrchestrator(lbInvoker{c}).Execute(ctx, wf, []byte("in;"))
	}()

	// While the gate step holds the slow branch back, drain its only
	// endpoint: the branch's invoke will target a dead worker.
	time.Sleep(100 * time.Millisecond)
	c.KillWorker(host)

	select {
	case <-done:
	case <-time.After(25 * time.Second):
		t.Fatal("workflow did not finish after endpoint drain")
	}
	if execErr != nil {
		t.Fatalf("workflow failed despite re-placement: %v", execErr)
	}
	if errors.Is(execErr, workflow.ErrStepFailed) {
		t.Fatalf("step failed: %v", execErr)
	}
	want := "in;gate;slow;other;tail"
	if got := string(res.Outputs["tail"]); got != want {
		t.Fatalf("tail output = %q, want %q", got, want)
	}
	if !bytes.HasSuffix(res.Outputs["slow"], []byte("slow;")) {
		t.Fatalf("slow output = %q", res.Outputs["slow"])
	}
	// The only wf-slow sandbox died with its worker before the gate opened,
	// so a run of the branch is a run on a sandbox placed after the kill.
	if slowRuns.Load() < 1 {
		t.Fatalf("slow branch never ran")
	}
	// With one leader throughout, only the health sweep can have
	// re-placed it. A leader elected mid-test starts wf-slow at scale
	// zero and re-places it before any failure is detected, so the
	// counter says nothing then.
	if c.Metrics.Counter("recoveries").Value() == 1 {
		if got := c.Metrics.Counter("worker_failures_detected").Value(); got < 1 {
			t.Fatalf("worker_failures_detected = %d, want >= 1", got)
		}
	}
}
