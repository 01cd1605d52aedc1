//go:build unix

package experiments

import (
	"testing"
	"time"
)

// TestIdleMeasures runs one row of the idle experiment small: a cluster
// with registered functions and no traffic uses some CPU and holds its
// functions' state.
func TestIdleMeasures(t *testing.T) {
	if _, ok := Get("idle"); !ok {
		t.Fatal(`experiment "idle" not registered`)
	}
	cpuMsPerS, heap, err := measureIdle(64, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cpuMsPerS <= 0 || heap <= 0 {
		t.Fatalf("idle cluster: %.2f CPU ms/s, %.0f B live heap; want both above 0", cpuMsPerS, heap)
	}
}
