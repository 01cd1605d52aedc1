package dataplane

import (
	"fmt"
	"testing"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// benchRuntime builds a data plane with one function and nEps warm
// endpoints of large capacity, without starting any loops, so the
// acquire/release cycle can be measured in isolation.
func benchRuntime(b *testing.B, nEps int) (*DataPlane, *functionRuntime) {
	b.Helper()
	dp := New(Config{
		ID:        1,
		Addr:      "dp-bench",
		Transport: transport.NewInProc(),
	})
	fr := dp.getOrCreate([]byte("bench-fn"))
	dp.lockRuntime(fr)
	snap := newSnapshot(nEps)
	for i := 0; i < nEps; i++ {
		id := core.SandboxID(i + 1)
		snap.states = append(snap.states, &endpointState{
			info:     proto.SandboxInfo{ID: id, Function: "bench-fn", Addr: "w:9000"},
			capacity: 1 << 20, // never saturates: isolates the pick cost
		})
	}
	dp.publishLocked(fr, snap)
	fr.mu.Unlock()
	return dp, fr
}

// BenchmarkAblationDPInvokeWarmPick measures the warm-start pick +
// throttle + release cycle alone (no proxy hop). With -benchmem it must
// report 0 allocs/op: the whole point of the copy-on-write endpoint
// snapshots is that steady-state warm starts build no candidate slice.
func BenchmarkAblationDPInvokeWarmPick(b *testing.B) {
	for _, nEps := range []int{1, 16} {
		b.Run(fmt.Sprintf("snapshot/eps-%d", nEps), func(b *testing.B) {
			dp, fr := benchRuntime(b, nEps)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					st, _, ok := dp.acquireWarm(fr)
					if !ok {
						b.Fatal("no warm slot")
					}
					dp.releaseSlot(fr, st)
				}
			})
		})
	}
}
