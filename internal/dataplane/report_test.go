package dataplane

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// These tests pin the scaling-report contract on the virtual clock: a
// periodic report carries only the functions whose demand differs from
// what the control plane last acknowledged, except the first after Start,
// the first after a function sync, the one after a refused full report and
// every fullReportEvery-th, which carry every function.

// reportHarness is one data plane on a virtual clock whose only timers are
// its metric period and an hour-long heartbeat period.
type reportHarness struct {
	tr  *transport.InProc
	cp  *fakeCP
	clk *clock.Virtual
	dp  *DataPlane
	// seen is how many of cp's reports the test has already looked at.
	seen int
}

func newReportHarness(t *testing.T, functions ...string) *reportHarness {
	t.Helper()
	h := &reportHarness{tr: transport.NewInProc(), clk: clock.NewVirtual(time.Unix(1000, 0))}
	h.cp = startFakeCP(t, h.tr, "cp")
	h.dp = New(Config{
		ID:                1,
		Addr:              "dp0:8000",
		Transport:         h.tr,
		ControlPlanes:     []string{"cp"},
		Clock:             h.clk,
		MetricInterval:    10 * time.Millisecond,
		HeartbeatInterval: time.Hour,
	})
	if err := h.dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.dp.Stop)
	pushFunctions(t, h.tr, h.dp.Addr(), functions...)
	return h
}

// period lets one metric period pass and returns the reports the fake
// control plane recorded during it, each as sorted "name=demand" strings.
func (h *reportHarness) period(t *testing.T) [][]string {
	t.Helper()
	// Both timers armed means the loop is waiting for its next period.
	poll(t, "the metric timer to be armed", func() bool { return h.clk.PendingTimers() == 2 })
	h.clk.Advance(h.dp.cfg.MetricInterval)
	poll(t, "the period's report to be sent", func() bool { return h.clk.PendingTimers() == 2 })
	h.cp.mu.Lock()
	defer h.cp.mu.Unlock()
	var out [][]string
	for _, rep := range h.cp.reports[h.seen:] {
		var fns []string
		for _, m := range rep.Metrics {
			fns = append(fns, fmt.Sprintf("%s=%d", m.Function, m.InFlight+m.QueueDepth))
		}
		sort.Strings(fns)
		out = append(out, fns)
	}
	h.seen = len(h.cp.reports)
	return out
}

// expectReport fails unless got is exactly one report naming want.
func expectReport(t *testing.T, what string, got [][]string, want ...string) {
	t.Helper()
	if len(got) != 1 || fmt.Sprint(got[0]) != fmt.Sprint(want) {
		t.Fatalf("%s: reports %v, want one of %v", what, got, want)
	}
}

func expectNoReport(t *testing.T, what string, got [][]string) {
	t.Helper()
	if len(got) != 0 {
		t.Fatalf("%s: reports %v, want none", what, got)
	}
}

func (h *reportHarness) refuse(on bool) {
	h.cp.mu.Lock()
	h.cp.refuse = on
	h.cp.mu.Unlock()
}

// busy starts an invocation of fn that stays in flight on its one sandbox
// until the returned function is called, which waits for it to finish.
func (h *reportHarness) busy(t *testing.T, fn string) (release func()) {
	t.Helper()
	addr := "host-" + fn + ":9000"
	arrived, gate := make(chan struct{}), make(chan struct{})
	ln, err := h.tr.Listen(addr, func(string, []byte) ([]byte, error) {
		close(arrived)
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pushEndpoints(t, h.tr, h.dp.Addr(), fn, []core.SandboxID{1}, addr)
	done := make(chan error, 1)
	go func() {
		_, err := invoke(h.tr, h.dp.Addr(), fn, nil)
		done <- err
	}()
	<-arrived
	return func() {
		t.Helper()
		close(gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReportIdleFunctionZeroOnce(t *testing.T) {
	h := newReportHarness(t, "f", "idle")
	expectReport(t, "first period", h.period(t), "f=0", "idle=0")

	release := h.busy(t, "f")
	expectReport(t, "f in flight", h.period(t), "f=1")
	expectNoReport(t, "f still in flight", h.period(t))
	release()
	expectReport(t, "f gone idle", h.period(t), "f=0")
	for i := 0; i < 5; i++ {
		expectNoReport(t, fmt.Sprintf("idle period %d", i), h.period(t))
	}
}

func TestReportRefusedResentNextPeriod(t *testing.T) {
	h := newReportHarness(t, "f", "g")
	// A refused full report leaves the next one full.
	h.refuse(true)
	expectNoReport(t, "refused first period", h.period(t))
	h.refuse(false)
	expectReport(t, "after the refused full report", h.period(t), "f=0", "g=0")

	// A refused report of changes is sent again: its values were never
	// acknowledged.
	release := h.busy(t, "f")
	h.refuse(true)
	expectNoReport(t, "refused change", h.period(t))
	h.refuse(false)
	expectReport(t, "after the refused change", h.period(t), "f=1")
	release()
	h.cp.mu.Lock()
	refused := h.cp.refused
	h.cp.mu.Unlock()
	if refused != 2 {
		t.Fatalf("the fake refused %d reports, want 2", refused)
	}
}

func TestReportFirstAfterStartFull(t *testing.T) {
	h := newReportHarness(t, "a", "b", "c")
	expectReport(t, "first period after Start", h.period(t), "a=0", "b=0", "c=0")
	expectNoReport(t, "second period", h.period(t))
}

func TestReportAfterSyncFunctionsFull(t *testing.T) {
	h := newReportHarness(t, "a", "b", "c")
	h.period(t)
	expectNoReport(t, "before the sync", h.period(t))
	// The control plane syncs whenever its demand table for this replica
	// may be empty: the next report must restore every entry.
	sendFunctions(t, h.tr, h.dp.Addr(), proto.MethodSyncFunctions, "a", "b", "c")
	expectReport(t, "after the sync", h.period(t), "a=0", "b=0", "c=0")
	expectNoReport(t, "the period after", h.period(t))
}

func TestReportEveryFullReportEveryFull(t *testing.T) {
	h := newReportHarness(t, "a", "b")
	var full []int
	for p := 1; p <= 2*fullReportEvery; p++ {
		switch got := h.period(t); len(got) {
		case 0:
		case 1:
			expectReport(t, fmt.Sprintf("period %d", p), got, "a=0", "b=0")
			full = append(full, p)
		default:
			t.Fatalf("period %d: %d reports", p, len(got))
		}
	}
	if want := []int{1, fullReportEvery, 2 * fullReportEvery}; fmt.Sprint(full) != fmt.Sprint(want) {
		t.Fatalf("full reports in periods %v, want %v", full, want)
	}
}
