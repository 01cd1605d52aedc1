package dataplane

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
)

// TestReportLooksAtActiveRuntimesOnly: after the first full report, a
// period over idle runtimes collects no metric; a runtime whose demand
// rises is looked at until the control plane holds its 0 again.
func TestReportLooksAtActiveRuntimesOnly(t *testing.T) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("fn-%02d", i)
	}
	h := newReportHarness(t, names...)
	if got := h.period(t); len(got) != 1 || len(got[0]) != len(names) {
		t.Fatalf("first period: reports %v, want one naming all %d functions", got, len(names))
	}
	_, before := h.dp.ActiveFunctions()
	for i := 0; i < 10; i++ {
		expectNoReport(t, "idle period", h.period(t))
	}
	if active, after := h.dp.ActiveFunctions(); active != 0 || after != before {
		t.Fatalf("10 idle periods: %d active, %d metrics collected; want none", active, after-before)
	}

	release := h.busy(t, names[0])
	if active, _ := h.dp.ActiveFunctions(); active != 1 {
		t.Fatalf("one invocation in flight: %d active, want 1", active)
	}
	expectReport(t, "in flight", h.period(t), names[0]+"=1")
	expectNoReport(t, "still in flight", h.period(t))
	release()
	expectReport(t, "done", h.period(t), names[0]+"=0")
	if active, _ := h.dp.ActiveFunctions(); active != 0 {
		t.Fatalf("after its 0 was acknowledged: %d active, want 0", active)
	}
	_, before = h.dp.ActiveFunctions()
	expectNoReport(t, "idle again", h.period(t))
	if _, after := h.dp.ActiveFunctions(); after != before {
		t.Fatalf("an idle period collected %d metrics", after-before)
	}
}

// TestReportActiveListConcurrentArrivals races warm arrivals against the
// report that prunes their runtime from the active list: however they
// interleave, an arrival is never lost, so the control plane learns of
// every demand that stays, and of its return to 0.
func TestReportActiveListConcurrentArrivals(t *testing.T) {
	h := newReportHarness(t, "f")
	expectReport(t, "first period", h.period(t), "f=0")
	const addr = "host-f:9000"
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	ln, err := h.tr.Listen(addr, func(string, []byte) ([]byte, error) {
		arrived <- struct{}{}
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pushEndpoints(t, h.tr, h.dp.Addr(), "f", []core.SandboxID{1}, addr)

	seen := func(reports [][]string, want string) bool {
		for _, r := range reports {
			for _, m := range r {
				if m == want {
					return true
				}
			}
		}
		return false
	}
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := invoke(h.tr, h.dp.Addr(), "f", nil); err != nil {
				t.Error(err)
			}
		}()
		// This period's prune races the arrival.
		reports := h.period(t)
		<-arrived
		reports = append(reports, h.period(t)...)
		if !seen(reports, "f=1") {
			t.Fatalf("round %d: an invocation in flight for two periods went unreported: %v", round, reports)
		}
		close(release)
		wg.Wait()
		release = make(chan struct{})
		if got := h.period(t); !seen(got, "f=0") {
			t.Fatalf("round %d: the return to 0 went unreported: %v", round, got)
		}
		if active, _ := h.dp.ActiveFunctions(); active != 0 {
			t.Fatalf("round %d: %d active after the 0 was acknowledged", round, active)
		}
	}
}

// TestReportArrivalRacingPruneKeepsRuntime plays the prune's losing
// interleaving in order: the prune finds a listed runtime idle, then an
// invocation takes a slot while the runtime's flag is still set (so it
// enlists nothing), then the prune clears the flag. The runtime must stay
// listed, and the next report must carry the invocation.
func TestReportArrivalRacingPruneKeepsRuntime(t *testing.T) {
	h := newReportHarness(t, "f")
	expectReport(t, "first period", h.period(t), "f=0")
	const addr = "host-f:9000"
	release := make(chan struct{})
	ln, err := h.tr.Listen(addr, func(string, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pushEndpoints(t, h.tr, h.dp.Addr(), "f", []core.SandboxID{1}, addr)
	fr := h.dp.lookup("f")
	fr.active.Store(true) // listed, as after an earlier invocation ...
	h.dp.activeMu.Lock()
	h.dp.active = append(h.dp.active, fr)
	h.dp.activeMu.Unlock()
	h.dp.nActive.Add(1)
	if fr.reported != 0 || fr.demand() != 0 {
		t.Fatalf("reported %d, demand %d: the prune would not find f idle", fr.reported, fr.demand())
	}
	// ... that the prune has just found idle. Now an invocation arrives.
	done := make(chan error, 1)
	go func() {
		_, err := invoke(h.tr, h.dp.Addr(), "f", nil)
		done <- err
	}()
	poll(t, "the invocation to take its slot", func() bool { return fr.demand() == 1 })
	if !stays(fr) {
		t.Fatal("the prune dropped a runtime an arrival had raced it for")
	}
	expectReport(t, "the raced arrival", h.period(t), "f=1")
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	expectReport(t, "done", h.period(t), "f=0")
	if active, _ := h.dp.ActiveFunctions(); active != 0 {
		t.Fatalf("%d active after the 0 was acknowledged, want 0", active)
	}
}

// TestDrainedQueueHoldsNoPending: once its cold starts have returned, a
// runtime's queue keeps no pending invocation reachable, through neither
// a dequeue nor a timed-out waiter's removal.
func TestDrainedQueueHoldsNoPending(t *testing.T) {
	h := newReportHarness(t, "f")
	fr := h.dp.lookup("f")
	timeout := h.dp.cfg.QueueTimeout
	errs := make(chan error, 3)
	start := func() {
		go func() {
			_, err := invoke(h.tr, h.dp.Addr(), "f", []byte("payload"))
			errs <- err
		}()
	}
	start()
	poll(t, "the first invocation to queue", func() bool { return h.dp.QueueDepth("f") == 1 })
	h.clk.Advance(timeout / 2)
	start()
	start()
	poll(t, "three invocations to queue", func() bool { return h.dp.QueueDepth("f") == 3 })
	fr.mu.Lock()
	backing := fr.queue[:cap(fr.queue)]
	fr.mu.Unlock()

	h.clk.Advance(timeout / 2) // the first waiter times out and leaves
	if err := <-errs; err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("the first invocation returned %v, want a timeout", err)
	}
	fr.mu.Lock()
	left := len(fr.queue)
	stale := 0
	for _, p := range backing[left:] {
		if p != nil {
			stale++
		}
	}
	fr.mu.Unlock()
	if left != 2 || stale != 0 {
		t.Fatalf("after the timeout: %d queued, %d stale pointers past them, want 2 and 0", left, stale)
	}

	const addr = "host-f:9000"
	ln, err := h.tr.Listen(addr, func(string, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pushEndpoints(t, h.tr, h.dp.Addr(), "f", []core.SandboxID{1}, addr)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a queued invocation never returned")
		}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for i, p := range backing {
		if p != nil {
			t.Errorf("slot %d of the drained queue's array still holds a pending invocation", i)
		}
	}
	if fr.queue != nil {
		t.Errorf("the drained queue keeps an array of %d slots", cap(fr.queue))
	}
}
