// Package placement implements the control plane's sandbox placement
// policies. Dirigent's default mirrors the K8s/Knative scheduler: it
// "favors nodes with the least utilized resources while aiming to balance
// resource utilization across CPU and memory" (paper §4). CacheAware, a
// cache-locality-aware variant that consults the image digests workers
// report in heartbeats, is the one alternative shipped, because the
// warmth experiment measures it. Others, such as Hermod (Kaffes et al.,
// SoCC'22), plug in through Policy and the control plane's Placer, as
// the paper describes; none is shipped.
package placement

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"

	"dirigent/internal/core"
)

// NodeStatus combines a worker's identity/capacity with its last reported
// utilization, as tracked by the control plane's health monitor.
type NodeStatus struct {
	Node core.WorkerNode
	Util core.NodeUtilization
}

// Requirements are the per-sandbox resource requests.
type Requirements struct {
	CPUMilli int
	MemoryMB int
	// ImageHash is core.HashImage of the sandbox's image, letting
	// cache-aware policies match it against node cache digests. 0 means
	// the image is unknown; every policy then behaves locality-blind.
	ImageHash uint64
}

// ErrNoCapacity reports that no node can fit the sandbox.
var ErrNoCapacity = errors.New("placement: no node with sufficient capacity")

// Policy selects the worker node for a new sandbox.
type Policy interface {
	// Place returns the chosen node ID. Implementations must not retain
	// the candidates slice.
	Place(candidates []NodeStatus, req Requirements) (core.NodeID, error)
}

// fits reports whether the node has room for the request.
func fits(n *NodeStatus, req Requirements) bool {
	return n.Util.CPUMilliUsed+req.CPUMilli <= n.Node.CPUMilli &&
		n.Util.MemoryMBUsed+req.MemoryMB <= n.Node.MemoryMB
}

// hasImage reports whether the request's image is in the node's reported
// cache digest (sorted ascending, see core.NodeUtilization).
func hasImage(n *NodeStatus, req Requirements) bool {
	if req.ImageHash == 0 || len(n.Util.CacheDigest) == 0 {
		return false
	}
	d := n.Util.CacheDigest
	i := sort.Search(len(d), func(i int) bool { return d[i] >= req.ImageHash })
	return i < len(d) && d[i] == req.ImageHash
}

// tieBreaker is a lock-free, allocation-free source of tie-break
// randomness: an atomic counter stepped by the splitmix64 golden-gamma
// and mixed with the request's image hash, so concurrent placements never
// serialize on a mutex-guarded rng (the same idiom the data plane load
// balancer uses for replica tie-breaks) and ties for different images
// decorrelate.
type tieBreaker struct {
	state atomic.Uint64
}

func (t *tieBreaker) seed(seed int64) { t.state.Store(uint64(seed)) }

// stream derives one draw stream for a placement call; the caller chains
// core.Splitmix64 per draw.
func (t *tieBreaker) stream(key uint64) uint64 {
	return core.Splitmix64(t.state.Add(0x9e3779b97f4a7c15) ^ key)
}

// kubeScore is the K8s default scheduler priority: the average of
// "LeastAllocated" (prefer low post-placement utilization) and
// "BalancedAllocation" (prefer similar CPU and memory fractions).
func kubeScore(c *NodeStatus, req Requirements) float64 {
	cpuFrac := float64(c.Util.CPUMilliUsed+req.CPUMilli) / float64(max(c.Node.CPUMilli, 1))
	memFrac := float64(c.Util.MemoryMBUsed+req.MemoryMB) / float64(max(c.Node.MemoryMB, 1))
	leastAllocated := 1 - (cpuFrac+memFrac)/2
	balanced := 1 - math.Abs(cpuFrac-memFrac)
	return (leastAllocated + balanced) / 2
}

// KubeDefault scores feasible nodes with the average of the K8s
// "LeastAllocated" and "BalancedAllocation" priorities and picks the best.
type KubeDefault struct {
	tb tieBreaker
}

// NewKubeDefault returns the default policy with deterministic tie-breaks.
func NewKubeDefault(seed int64) *KubeDefault {
	p := &KubeDefault{}
	p.tb.seed(seed)
	return p
}

// Place implements Policy.
func (p *KubeDefault) Place(candidates []NodeStatus, req Requirements) (core.NodeID, error) {
	best, err := placeScored(&p.tb, candidates, req, kubeScore)
	if err != nil {
		return 0, err
	}
	return candidates[best].Node.ID, nil
}

// placeScored picks the best-scoring feasible candidate,
// reservoir-sampling among exact ties with a key-seeded splitmix64 stream
// — no locks, no allocations.
func placeScored(tb *tieBreaker, candidates []NodeStatus, req Requirements, score func(*NodeStatus, Requirements) float64) (int, error) {
	best := -1
	bestScore := math.Inf(-1)
	ties := uint64(0)
	r := tb.stream(req.ImageHash)
	for i := range candidates {
		c := &candidates[i]
		if !fits(c, req) {
			continue
		}
		s := score(c, req)
		switch {
		case s > bestScore:
			bestScore = s
			best = i
			ties = 1
		case s == bestScore:
			// Reservoir-sample among exact ties for fairness.
			ties++
			r = core.Splitmix64(r)
			if r%ties == 0 {
				best = i
			}
		}
	}
	if best < 0 {
		return 0, ErrNoCapacity
	}
	return best, nil
}

// CacheAware scores like KubeDefault but lifts nodes whose reported cache
// digest already holds the sandbox's image above every non-holder
// (kube scores lie in [0,1], so a +1 cache bonus strictly dominates):
// cold starts land where the pull is already paid, and fall back to the
// plain kube-default choice when no feasible node has the image or the
// request carries no image hash. The control plane's Placer knob ablates
// back to the locality-blind default.
type CacheAware struct {
	tb tieBreaker
}

// NewCacheAware returns the cache-locality-aware policy.
func NewCacheAware(seed int64) *CacheAware {
	p := &CacheAware{}
	p.tb.seed(seed)
	return p
}

// Place implements Policy.
func (p *CacheAware) Place(candidates []NodeStatus, req Requirements) (core.NodeID, error) {
	best, err := placeScored(&p.tb, candidates, req, func(c *NodeStatus, req Requirements) float64 {
		s := kubeScore(c, req)
		if hasImage(c, req) {
			s += 1
		}
		return s
	})
	if err != nil {
		return 0, err
	}
	return candidates[best].Node.ID, nil
}
