package loadbalancer

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"dirigent/internal/core"
)

// snapEps builds a snapshot with the given in-flight counts and a shared
// capacity.
func snapEps(capacity int, inflight ...int) []SnapshotEndpoint {
	eps := make([]SnapshotEndpoint, len(inflight))
	for i, n := range inflight {
		ctr := new(atomic.Int64)
		ctr.Store(int64(n))
		eps[i] = SnapshotEndpoint{
			SandboxID: core.SandboxID(i + 1),
			Addr:      "w:9000",
			InFlight:  ctr,
			Capacity:  capacity,
		}
	}
	return eps
}

func TestLeastLoadedPicksIdle(t *testing.T) {
	p := NewLeastLoaded(1)
	got := p.PickIndex("f", 1, snapEps(4, 3, 0, 2))
	if got != 1 {
		t.Errorf("PickIndex = %d, want 1 (idle)", got)
	}
}

// -1 is the policy's "no endpoint": the invocation queues.
func TestLeastLoadedReturnsNilWhenSaturated(t *testing.T) {
	p := NewLeastLoaded(1)
	if idx := p.PickIndex("f", 1, snapEps(1, 1, 1, 1)); idx != -1 {
		t.Errorf("saturated PickIndex = %d, want -1 (queue)", idx)
	}
}

func TestLeastLoadedEmpty(t *testing.T) {
	p := NewLeastLoaded(1)
	if idx := p.PickIndex("f", 1, nil); idx != -1 {
		t.Errorf("empty PickIndex = %d, want -1", idx)
	}
}

// The tie-break spreads over the least-loaded endpoints only, and one key
// always gets the same one.
func TestLeastLoadedTieBreakSpreads(t *testing.T) {
	p := NewLeastLoaded(11)
	eps := snapEps(4, 0, 1, 0, 1, 0)
	seen := make(map[int]bool)
	for key := uint64(0); key < 200; key++ {
		idx := p.PickIndex("f", key, eps)
		if idx%2 != 0 {
			t.Fatalf("key %d: tie-break picked loaded endpoint %d", key, idx)
		}
		if again := p.PickIndex("f", key, eps); again != idx {
			t.Fatalf("key %d: picked %d, then %d", key, idx, again)
		}
		seen[idx] = true
	}
	if len(seen) < 2 {
		t.Errorf("tie-break always picked the same endpoint")
	}
}

// TestPickIndexMatchesPickSemantics checks the contract every policy
// keeps, which the data plane's queueing relies on: a free endpoint is
// picked whenever one exists, a saturated one never is, and a saturated
// or empty set gives -1.
func TestPickIndexMatchesPickSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Policy
	}{
		{"least-loaded", NewLeastLoaded(1)},
	} {
		p := tc.p
		t.Run(tc.name, func(t *testing.T) {
			eps := snapEps(2, 2, 0, 2, 1)
			for key := uint64(0); key < 50; key++ {
				idx := p.PickIndex("f", key, eps)
				if idx < 0 {
					t.Fatalf("key %d: no pick despite free slots", key)
				}
				if eps[idx].InFlight.Load() >= int64(eps[idx].Capacity) {
					t.Fatalf("key %d: picked saturated endpoint %d", key, idx)
				}
			}
			if idx := p.PickIndex("f", 1, snapEps(1, 1, 1, 1)); idx != -1 {
				t.Errorf("saturated PickIndex = %d, want -1", idx)
			}
			if idx := p.PickIndex("f", 1, nil); idx != -1 {
				t.Errorf("empty PickIndex = %d, want -1", idx)
			}
		})
	}
}

func TestPickIndexLeastLoadedPrefersIdle(t *testing.T) {
	p := NewLeastLoaded(1)
	eps := snapEps(4, 3, 0, 2, 3)
	for key := uint64(0); key < 20; key++ {
		if idx := p.PickIndex("f", key, eps); idx != 1 {
			t.Fatalf("key %d: PickIndex = %d, want 1 (idle)", key, idx)
		}
	}
}

func TestPickIndexTieBreakSpreads(t *testing.T) {
	p := NewLeastLoaded(11)
	eps := snapEps(4, 0, 0, 0)
	seen := make(map[int]bool)
	for key := uint64(0); key < 200; key++ {
		seen[p.PickIndex("f", key, eps)] = true
	}
	if len(seen) < 2 {
		t.Errorf("key-seeded tie-break always picked the same endpoint")
	}
}

// TestQuickPoliciesNeverPickFull property-tests LeastLoaded.PickIndex:
// it returns -1 exactly when the set is empty or fully saturated, and
// otherwise a non-saturated endpoint whose in-flight count is the
// minimum among the non-saturated endpoints.
func TestQuickPoliciesNeverPickFull(t *testing.T) {
	p := NewLeastLoaded(5)
	f := func(loads []uint8, key uint64) bool {
		eps := make([]SnapshotEndpoint, len(loads))
		minFree := int64(-1)
		for i, l := range loads {
			ctr := new(atomic.Int64)
			ctr.Store(int64(l % 4))
			eps[i] = SnapshotEndpoint{SandboxID: core.SandboxID(i + 1), InFlight: ctr, Capacity: 3}
			if n := ctr.Load(); n < 3 && (minFree < 0 || n < minFree) {
				minFree = n
			}
		}
		idx := p.PickIndex("fn", key, eps)
		if minFree < 0 {
			return idx == -1
		}
		return idx >= 0 && idx < len(eps) && eps[idx].InFlight.Load() == minFree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTryAcquireThrottles(t *testing.T) {
	eps := snapEps(2, 0)
	e := &eps[0]
	if !e.TryAcquire() || !e.TryAcquire() {
		t.Fatal("acquire failed with free slots")
	}
	if e.TryAcquire() {
		t.Fatal("acquire succeeded beyond capacity")
	}
	e.InFlight.Add(-1)
	if !e.TryAcquire() {
		t.Fatal("acquire failed after release")
	}
}

// TestPickIndexAllocationFree pins the contract that matters to the data
// plane: a warm pick performs zero allocations.
func TestPickIndexAllocationFree(t *testing.T) {
	eps := snapEps(2, 1, 0, 1, 0, 1, 0, 1, 0)
	t.Run("least-loaded", func(t *testing.T) {
		p := NewLeastLoaded(1)
		key := uint64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			key++
			if p.PickIndex("f", key, eps) < 0 {
				t.Fatal("no pick")
			}
		})
		if allocs != 0 {
			t.Errorf("PickIndex allocates %.1f per op, want 0", allocs)
		}
	})
}
