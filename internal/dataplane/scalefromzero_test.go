package dataplane

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/transport"
)

// These tests run a data plane whose periodic metric report is an hour
// away, so every report the fake control plane sees is a scale-from-zero
// trigger. They wait on events (a report arriving, a queue filling, an
// invocation returning), never on time passing.

func hourlyDP(t *testing.T, tr *transport.InProc) *DataPlane {
	t.Helper()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   10 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	return dp
}

// poll waits for cond, which must come true without time having to pass.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (cp *fakeCP) reportCount() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.reports)
}

// invokeAll starts one cold invocation per name, each n times over, and
// returns a function that waits for all of them and fails on any error.
func invokeAll(t *testing.T, tr *transport.InProc, dpAddr string, names []string, n int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, name := range names {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := invoke(tr, dpAddr, name, []byte("x")); err != nil {
					t.Errorf("invoke %s: %v", name, err)
				}
			}(name)
		}
	}
	return wg.Wait
}

func TestScaleFromZeroReportOnFirstQueuedInvocation(t *testing.T) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := hourlyDP(t, tr)
	pushFunctions(t, tr, dp.Addr(), "f", "idle")

	wait := invokeAll(t, tr, dp.Addr(), []string{"f"}, 1)
	poll(t, "the triggered report", func() bool { return cp.reportCount() == 1 })
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	wait()

	// A warm invocation is the periodic report's business.
	if _, err := invoke(tr, dp.Addr(), "f", nil); err != nil {
		t.Fatal(err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if len(cp.reports) != 1 {
		t.Fatalf("%d reports, want exactly the one trigger", len(cp.reports))
	}
	rep := cp.reports[0]
	if rep.DataPlane != 1 || len(rep.Metrics) != 1 || rep.Metrics[0].Function != "f" || rep.Metrics[0].QueueDepth < 1 {
		t.Fatalf("trigger report = %+v, want only f with a queue", rep)
	}
}

func TestScaleFromZeroOneMarkForConcurrentArrivals(t *testing.T) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := hourlyDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")

	const k = 32
	wait := invokeAll(t, tr, dp.Addr(), []string{"f"}, k)
	poll(t, "all arrivals to queue", func() bool { return dp.QueueDepth("f") == k })
	poll(t, "the triggered report", func() bool { return cp.reportCount() >= 1 })
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1, 2, 3, 4}, "w1:9000")
	wait()
	// Only the arrival that found the queue empty marked the function: the
	// rest were waiting on the report it had already caused.
	if n := cp.reportCount(); n != 1 {
		t.Fatalf("%d arrivals for one cold function caused %d reports, want 1", k, n)
	}
}

func TestScaleFromZeroConcurrentMarksShareTheNextReport(t *testing.T) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	dp := hourlyDP(t, tr)
	const m = 24
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("fn-%02d", i)
	}
	pushFunctions(t, tr, dp.Addr(), append([]string{"first"}, names...)...)

	// The control plane is slow to answer the first trigger...
	hold := make(chan struct{})
	cp.mu.Lock()
	cp.hold = hold
	cp.mu.Unlock()
	go invoke(tr, dp.Addr(), "first", nil) // fails when the data plane stops
	poll(t, "the first report", func() bool { return cp.reportCount() == 1 })

	// ...and m more functions go cold meanwhile, several arrivals each.
	for _, name := range names {
		for i := 0; i < 3; i++ {
			go invoke(tr, dp.Addr(), name, nil)
		}
	}
	poll(t, "every function to queue", func() bool {
		for _, name := range names {
			if dp.QueueDepth(name) != 3 {
				return false
			}
		}
		return true
	})
	dp.coldMu.Lock()
	pending := len(dp.cold)
	dp.coldMu.Unlock()
	if pending != m {
		t.Fatalf("%d functions pending behind the open report, want %d (each once)", pending, m)
	}

	cp.mu.Lock()
	cp.hold = nil
	cp.mu.Unlock()
	close(hold)
	poll(t, "the second report", func() bool { return cp.reportCount() >= 2 })

	cp.mu.Lock()
	defer cp.mu.Unlock()
	if len(cp.reports) != 2 {
		t.Fatalf("%d reports, want 2", len(cp.reports))
	}
	var got []string
	for _, metric := range cp.reports[1].Metrics {
		if metric.QueueDepth < 1 {
			t.Errorf("%s reported with queue depth %d", metric.Function, metric.QueueDepth)
		}
		got = append(got, metric.Function)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("second report names %v, want exactly %v", got, names)
	}
}
