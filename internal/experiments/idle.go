//go:build unix

package experiments

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
)

func init() {
	register(Experiment{
		ID:    "idle",
		Title: "Idle cost of registered functions: CPU and live heap with no traffic",
		Run:   runIdle,
	})
}

// idleFunctionCounts are the registry sizes runIdle sweeps: none, the
// benchmark's 768, the paper's Azure-4000 trace, and four times that.
var idleFunctionCounts = []int{0, 768, 4000, 16000}

// runIdle measures what registered functions cost a cluster that serves
// nothing. For each registry size it starts the in-process cluster (one
// control plane, three data planes, eight workers, the package's default
// loop periods), registers the functions, lets the first full reports
// pass, and then, with no traffic at all, reads the process's CPU time
// (getrusage) over the idle window and its live heap after two GCs. A
// cluster manager whose loops walk only what changed costs about the same
// with 16 000 functions as with none; per-function columns are against the
// zero-function row.
func runIdle(w io.Writer, scale float64) error {
	window := max(time.Duration(float64(10*time.Second)*scale), 500*time.Millisecond)
	t := newTable("functions", "cpu_ms_per_s", "cpu_us_per_fn_per_s", "heap_mb", "heap_b_per_fn")
	var baseCPU, baseHeap float64
	for i, n := range idleFunctionCounts {
		if n > 0 {
			n = scaleInt(n, scale, 1)
		}
		cpuMsPerS, heap, err := measureIdle(n, window)
		if err != nil {
			return err
		}
		if i == 0 {
			baseCPU, baseHeap = cpuMsPerS, heap
			t.addRow(n, cpuMsPerS, "-", heap/(1<<20), "-")
			continue
		}
		t.addRow(n, cpuMsPerS, (cpuMsPerS-baseCPU)*1e3/float64(n), heap/(1<<20), (heap-baseHeap)/float64(n))
	}
	t.write(w)
	fmt.Fprintf(w, "# %v idle per row, GOMAXPROCS %d. Expected shape: CPU per second nearly flat in the\n", window, runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "# registry size (what is left is the data planes' once-a-second full report);")
	fmt.Fprintln(w, "# live heap grows by the function specs each tier keeps, not by autoscaler windows.")
	return nil
}

// measureIdle runs one idle cluster with n registered functions for
// window and returns its CPU milliseconds per second and live heap bytes.
func measureIdle(n int, window time.Duration) (cpuMsPerS, heap float64, err error) {
	c, err := cluster.New(cluster.Options{ControlPlanes: 1, DataPlanes: 3, Workers: 8})
	if err != nil {
		return 0, 0, err
	}
	defer c.Shutdown()
	for i := 0; i < n; i++ {
		fn := core.Function{Name: fmt.Sprintf("idle-%05d", i), Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
		if err := c.RegisterFunction(fn); err != nil {
			return 0, 0, fmt.Errorf("register %s: %w", fn.Name, err)
		}
	}
	// Registration's own work and the first full reports are set-up.
	time.Sleep(window / 5)
	runtime.GC()
	start, cpuStart := time.Now(), processCPU()
	time.Sleep(window)
	cpu, elapsed := processCPU()-cpuStart, time.Since(start)
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(cpu.Microseconds()) / 1e3 / elapsed.Seconds(), float64(ms.HeapAlloc), nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
