package dataplane

import (
	"context"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// loopTimers is how many timers a started data plane keeps pending on its
// clock: the metric loop's and the heartbeat loop's.
const loopTimers = 2

// virtualDP starts a data plane on vclk over tr, with its metric loop
// parked, and waits until both its loops have armed their timers.
func virtualDP(t *testing.T, tr transport.Transport, vclk *clock.Virtual, queueTimeout time.Duration) *DataPlane {
	t.Helper()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		Clock:          vclk,
		MetricInterval: time.Hour,
		QueueTimeout:   queueTimeout,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	for deadline := time.Now().Add(5 * time.Second); vclk.PendingTimers() != loopTimers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d timers pending after Start, want %d", vclk.PendingTimers(), loopTimers)
		}
	}
	return dp
}

// invokeAsync invokes f on dp from a goroutine of its own and waits until
// the queue holds depth invocations, each with its timeout armed on vclk.
func invokeAsync(t *testing.T, tr *transport.InProc, dp *DataPlane, vclk *clock.Virtual, depth int) <-chan error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", []byte("x"))
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for dp.QueueDepth("f") != depth || vclk.PendingTimers() != loopTimers+depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d with %d timers, want %d with %d", dp.QueueDepth("f"), vclk.PendingTimers(), depth, loopTimers+depth)
		}
		time.Sleep(time.Millisecond)
	}
	return errCh
}

// TestGrantRacingTheWaitersEndReturnsItsSlot: a slot granted to a queued
// invocation whose wait has just ended goes back, and the next queued
// invocation gets it.
func TestGrantRacingTheWaitersEndReturnsItsSlot(t *testing.T) {
	// The grant lands as QueueTimeout passes: whether the waiter sees
	// the grant or the timeout first, it fails and gives the slot back.
	t.Run("timeout", func(t *testing.T) {
		tr := transport.NewInProc()
		startFakeCP(t, tr, "cp")
		startSandboxHost(t, tr, "w1:9000", 0)
		vclk := clock.NewVirtual(time.Unix(1000, 0))
		dp := virtualDP(t, tr, vclk, time.Second)
		pushFunction(t, tr, dp.Addr(), "f")
		pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
		fr := dp.lookup("f")
		st, _, ok := dp.acquireWarm(fr) // the one slot, held by the test
		if !ok {
			t.Fatal("no slot to hold")
		}
		first := invokeAsync(t, tr, dp, vclk, 1)
		vclk.Advance(500 * time.Millisecond)
		second := invokeAsync(t, tr, dp, vclk, 2)

		dp.lockRuntime(fr)
		vclk.Advance(500 * time.Millisecond) // the first wait is over, the second not
		st.inFlight.Add(-1)
		dp.pumpLocked(fr) // the freed slot goes to the head of the queue: the first
		fr.mu.Unlock()

		if err := <-first; err == nil {
			t.Fatal("the first invocation ran after its QueueTimeout")
		}
		if err := <-second; err != nil {
			t.Fatalf("the second invocation did not get the slot back: %v", err)
		}
		if n, in := dp.QueueDepth("f"), st.inFlight.Load(); n != 0 || in != 0 {
			t.Fatalf("queue depth %d and %d slots taken after both returned, want 0 and 0", n, in)
		}
	})
	// The waiter's own give-up, on a timeout or on Stop: abandon finds
	// the pending out of the queue with a grant in its channel.
	t.Run("abandon", func(t *testing.T) {
		tr := transport.NewInProc()
		startFakeCP(t, tr, "cp")
		dp := testDP(t, tr)
		pushFunction(t, tr, dp.Addr(), "f")
		pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
		fr := dp.lookup("f")
		p1 := &pending{grant: make(chan grant, 1), fr: fr}
		p2 := &pending{grant: make(chan grant, 1), fr: fr}
		dp.lockRuntime(fr)
		fr.queue = append(fr.queue, p1, p2)
		fr.queued.Add(2)
		dp.pumpLocked(fr) // p1 gets the one slot
		fr.mu.Unlock()

		dp.abandon(p1)
		select {
		case g := <-p2.grant:
			if g.st == nil || g.err != nil {
				t.Fatalf("p2 got %+v, want a slot", g)
			}
		default:
			t.Fatal("the slot granted to the abandoned invocation never reached the next one")
		}
		if n := dp.QueueDepth("f"); n != 0 {
			t.Fatalf("queue depth %d, want 0", n)
		}
	})
}

// deadlineProbe fails every proxy call at once, reporting how long its
// deadline left it.
type deadlineProbe struct {
	transport.Transport
	left chan time.Duration
}

func (p *deadlineProbe) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	if method != proto.MethodInvokeSandbox {
		return p.Transport.Call(ctx, addr, method, payload)
	}
	dl, _ := ctx.Deadline()
	p.left <- time.Until(dl)
	return nil, context.DeadlineExceeded
}

// TestQueuedWaitBoundedByQueueTimeout: a cold invocation granted a slot
// 800 ms into a 1 s QueueTimeout gives its proxy call the 200 ms left,
// not a fresh second, so its whole wait stays within QueueTimeout.
func TestQueuedWaitBoundedByQueueTimeout(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	probe := &deadlineProbe{Transport: tr, left: make(chan time.Duration, 1)}
	vclk := clock.NewVirtual(time.Unix(1000, 0))
	dp := virtualDP(t, probe, vclk, time.Second)
	pushFunction(t, tr, dp.Addr(), "f")
	done := invokeAsync(t, tr, dp, vclk, 1)

	vclk.Advance(800 * time.Millisecond)
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	select {
	case left := <-probe.left:
		if left <= 0 || left > 200*time.Millisecond {
			t.Fatalf("the proxy call was given %v, want what is left of QueueTimeout: (0, 200ms]", left)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the queued invocation was never dispatched")
	}
	if err := <-done; err == nil {
		t.Fatal("the invocation succeeded though its proxy call failed")
	}
}

// TestSchedulingLatencyEndsAtDispatch: an invocation's scheduling latency
// is its time in the data plane up to dispatch, without the function's
// execution. A sandbox that takes 50 ms of the data plane's clock to
// answer leaves a warm start at 0 µs and a cold start at its queue wait.
func TestSchedulingLatencyEndsAtDispatch(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	vclk := clock.NewVirtual(time.Unix(1000, 0))
	ln, err := tr.Listen("w1:9000", func(method string, payload []byte) ([]byte, error) {
		vclk.Advance(50 * time.Millisecond)
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dp := virtualDP(t, tr, vclk, time.Second)
	pushFunction(t, tr, dp.Addr(), "f")

	type result struct {
		resp *proto.InvokeResponse
		err  error
	}
	cold := make(chan result, 1)
	go func() {
		resp, err := invoke(tr, dp.Addr(), "f", nil)
		cold <- result{resp, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); dp.QueueDepth("f") != 1 || vclk.PendingTimers() != loopTimers+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the cold invocation never queued with its timeout armed")
		}
	}
	vclk.Advance(300 * time.Millisecond)
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	select {
	case r := <-cold:
		if r.err != nil {
			t.Fatalf("cold invoke: %v", r.err)
		}
		if !r.resp.ColdStart || r.resp.SchedulingLatencyUs != 300_000 {
			t.Fatalf("cold start reported cold %v, %d µs; want a cold start's 300000 µs queue wait", r.resp.ColdStart, r.resp.SchedulingLatencyUs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the queued invocation was never dispatched")
	}

	resp, err := invoke(tr, dp.Addr(), "f", nil)
	if err != nil {
		t.Fatalf("warm invoke: %v", err)
	}
	if resp.ColdStart || resp.SchedulingLatencyUs != 0 {
		t.Fatalf("warm start reported cold %v, %d µs; want a warm start's 0 µs", resp.ColdStart, resp.SchedulingLatencyUs)
	}
}
