package placement

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dirigent/internal/core"
)

func nodes(utils ...[2]int) []NodeStatus {
	out := make([]NodeStatus, len(utils))
	for i, u := range utils {
		out[i] = NodeStatus{
			Node: core.WorkerNode{
				ID:       core.NodeID(i + 1),
				Name:     "w",
				CPUMilli: 10000,
				MemoryMB: 65536,
			},
			Util: core.NodeUtilization{
				Node:         core.NodeID(i + 1),
				CPUMilliUsed: u[0],
				MemoryMBUsed: u[1],
			},
		}
	}
	return out
}

var req = Requirements{CPUMilli: 100, MemoryMB: 128}

// imgReq is req with an image, which cache-aware matches against digests.
var imgReq = Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: core.HashImage("registry.local/fn-a")}

func TestKubeDefaultPrefersLeastUtilized(t *testing.T) {
	p := NewKubeDefault(1)
	cands := nodes([2]int{9000, 60000}, [2]int{100, 1000}, [2]int{5000, 30000})
	id, err := p.Place(cands, req)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("placed on node %d, want 2 (least utilized)", id)
	}
}

func TestKubeDefaultBalancesCPUAndMemory(t *testing.T) {
	p := NewKubeDefault(1)
	// Node 1: CPU hot, memory cold (imbalanced). Node 2: both moderate
	// with the same total allocation — balanced should win.
	cands := nodes([2]int{8000, 0}, [2]int{4000, 26214})
	id, err := p.Place(cands, req)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("placed on node %d, want 2 (balanced)", id)
	}
}

// namedPolicy labels a policy in test output.
type namedPolicy struct {
	name string
	p    Policy
}

// shipped returns one instance of every shipped policy.
func shipped(seed int64) []namedPolicy {
	return []namedPolicy{
		{"kube-default", NewKubeDefault(seed)},
		{"cache-aware", NewCacheAware(seed)},
	}
}

// withDigests gives every candidate a random cache digest, holding the
// request's image on about half of them, so cache-aware's digest search
// runs.
func withDigests(rng *rand.Rand, cands []NodeStatus, img uint64) {
	for i := range cands {
		d := []uint64{rng.Uint64(), rng.Uint64()}
		if rng.Intn(2) == 0 {
			d = append(d, img)
		}
		slices.Sort(d)
		cands[i].Util.CacheDigest = d
	}
}

func TestPlacementRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	full := nodes([2]int{10000, 65536}, [2]int{9950, 65536})
	withDigests(rng, full, imgReq.ImageHash)
	for _, tc := range shipped(1) {
		if _, err := tc.p.Place(full, imgReq); err == nil {
			t.Errorf("%s placed on a full cluster", tc.name)
		}
		if _, err := tc.p.Place([]NodeStatus{}, imgReq); err == nil {
			t.Errorf("%s placed with no nodes", tc.name)
		}
	}
}

func TestPlacementPartialCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Only node 3 has room.
	cands := nodes([2]int{10000, 65536}, [2]int{10000, 65536}, [2]int{0, 0})
	withDigests(rng, cands, imgReq.ImageHash)
	for _, tc := range shipped(1) {
		id, err := tc.p.Place(cands, imgReq)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if id != 3 {
			t.Errorf("%s placed on %d, want 3", tc.name, id)
		}
	}
}

// TestQuickPlacementAlwaysFeasible property-tests that every policy only
// ever returns nodes that actually fit the request, and refuses only
// when none does.
func TestQuickPlacementAlwaysFeasible(t *testing.T) {
	policies := shipped(3)
	f := func(raw []uint16, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		cands := make([]NodeStatus, 0, len(raw))
		for i, v := range raw {
			cands = append(cands, NodeStatus{
				Node: core.WorkerNode{ID: core.NodeID(i + 1), CPUMilli: 10000, MemoryMB: 65536},
				Util: core.NodeUtilization{
					CPUMilliUsed: int(v) % 11000,
					MemoryMBUsed: (int(v) * 7) % 70000,
				},
			})
		}
		withDigests(rand.New(rand.NewSource(seed)), cands, imgReq.ImageHash)
		byID := make(map[core.NodeID]NodeStatus)
		anyFits := false
		for _, c := range cands {
			byID[c.Node.ID] = c
			if fits(&c, imgReq) {
				anyFits = true
			}
		}
		for _, tc := range policies {
			id, err := tc.p.Place(cands, imgReq)
			if err != nil {
				if anyFits {
					return false // refused although a node fits
				}
				continue
			}
			c := byID[id]
			if !fits(&c, imgReq) {
				return false // placed on an overfull node
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// CacheAware sends a cold start to the feasible node holding the image,
// even when the kube score prefers an emptier node.
func TestCacheAwarePrefersImageHolder(t *testing.T) {
	p := NewCacheAware(1)
	img := core.HashImage("registry.local/fn-a")
	cands := nodes([2]int{100, 1000}, [2]int{6000, 40000})
	// The busier node holds the image.
	cands[1].Util.CacheDigest = []uint64{1, img, ^uint64(0)}
	id, err := p.Place(cands, Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: img})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("placed on node %d, want 2 (image holder)", id)
	}
}

// Among several holders, the kube score still arbitrates.
func TestCacheAwareScoresAmongHolders(t *testing.T) {
	p := NewCacheAware(1)
	img := core.HashImage("registry.local/fn-a")
	cands := nodes([2]int{9000, 60000}, [2]int{100, 1000})
	cands[0].Util.CacheDigest = []uint64{img}
	cands[1].Util.CacheDigest = []uint64{img}
	id, err := p.Place(cands, Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: img})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("placed on node %d, want 2 (least utilized holder)", id)
	}
}

// A full image holder is never chosen over a feasible non-holder: cache
// affinity does not override capacity.
func TestCacheAwareRespectsCapacity(t *testing.T) {
	p := NewCacheAware(1)
	img := core.HashImage("registry.local/fn-a")
	cands := nodes([2]int{10000, 65536}, [2]int{3000, 20000})
	cands[0].Util.CacheDigest = []uint64{img}
	id, err := p.Place(cands, Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: img})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("placed on node %d, want 2 (only feasible)", id)
	}
}

// Seed-parity ablation: with no digests reported — or no image hash in
// the request — CacheAware degrades to exactly the KubeDefault choice on
// every input, so switching the Placer knob back is a pure no-op.
func TestCacheAwareBlindMatchesKubeDefault(t *testing.T) {
	blind := NewCacheAware(7)
	kube := NewKubeDefault(7)
	inputs := [][]NodeStatus{
		nodes([2]int{9000, 60000}, [2]int{100, 1000}, [2]int{5000, 30000}),
		nodes([2]int{8000, 0}, [2]int{4000, 26214}),
		nodes([2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0}),
	}
	for gi, cands := range inputs {
		for trial := 0; trial < 32; trial++ {
			// No digests anywhere: identical scoring and an identically
			// seeded tie-break stream must agree call for call.
			a, errA := blind.Place(cands, Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: 9999})
			b, errB := kube.Place(cands, Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: 9999})
			if errA != nil || errB != nil {
				t.Fatalf("group %d: %v %v", gi, errA, errB)
			}
			if a != b {
				t.Fatalf("group %d trial %d: cache-aware(blind) chose %d, kube-default chose %d", gi, trial, a, b)
			}
		}
	}
}

// The tie-break satellite: Place allocates nothing and takes no locks on
// the hot path.
func TestPlaceAllocationFree(t *testing.T) {
	cands := nodes([2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0})
	img := core.HashImage("registry.local/fn-a")
	cands[2].Util.CacheDigest = []uint64{img}
	reqs := Requirements{CPUMilli: 100, MemoryMB: 128, ImageHash: img}
	for _, tc := range shipped(1) {
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := tc.p.Place(cands, reqs); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: Place allocates %.1f per call, want 0", tc.name, avg)
		}
	}
}

// Concurrent placements through one policy instance stay correct (the
// old mutex-guarded rng serialized here; run with -race).
func TestConcurrentPlacements(t *testing.T) {
	cands := nodes([2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0})
	for _, tc := range shipped(1) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					id, err := tc.p.Place(cands, req)
					if err != nil || id < 1 || id > 4 {
						t.Errorf("%s: id=%d err=%v", tc.name, id, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
