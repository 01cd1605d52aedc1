// Package loadbalancer implements the data plane's invocation load
// balancing. Dirigent's default forwards invocations to the least-loaded
// sandbox, following Knative (paper §4). Alternatives such as CH-RLU
// (Fuerst & Sharma, HPDC'22) plug in through Policy and the data plane's
// Config.Balancer; none is shipped, because no experiment measures one.
package loadbalancer

import (
	"sync/atomic"

	"dirigent/internal/core"
)

// SnapshotEndpoint is one candidate in an immutable, copy-on-write
// endpoint snapshot. The data plane rebuilds the snapshot only when the
// endpoint set changes; between rebuilds, instantaneous load is read
// through InFlight, the per-endpoint counter shared with the concurrency
// throttler, so no per-pick slice of load copies needs to be built.
type SnapshotEndpoint struct {
	SandboxID core.SandboxID
	Addr      string
	// InFlight points at the live in-flight counter for the sandbox.
	InFlight *atomic.Int64
	// Capacity is the sandbox's concurrency limit (1 in the paper's
	// evaluation, matching commercial FaaS).
	Capacity int
}

// TryAcquire CAS-claims one concurrency slot, failing when the endpoint
// is saturated. This is the data plane's lock-free throttler.
func (e *SnapshotEndpoint) TryAcquire() bool {
	for {
		cur := e.InFlight.Load()
		if cur >= int64(e.Capacity) {
			return false
		}
		if e.InFlight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Policy picks a sandbox for a warm invocation. PickIndex returns the
// index into eps of the chosen endpoint, or -1 when eps is empty or every
// endpoint is saturated and the request must queue. Implementations must
// be safe for concurrent use, must not retain eps, and must not allocate
// or take policy-global locks: this runs on the data plane's invoke hot
// path for every warm start.
type Policy interface {
	PickIndex(function string, key uint64, eps []SnapshotEndpoint) int
}

// LeastLoaded picks the endpoint with the fewest in-flight requests that
// still has a free slot. Ties break pseudo-randomly from the invocation
// key, so the policy holds no state and no lock.
type LeastLoaded struct{}

// NewLeastLoaded returns the default least-loaded policy. The seed is
// unused: tie-breaks derive from each invocation's key.
func NewLeastLoaded(seed int64) *LeastLoaded { return &LeastLoaded{} }

// PickIndex implements Policy.
func (p *LeastLoaded) PickIndex(_ string, key uint64, eps []SnapshotEndpoint) int {
	r := core.Splitmix64(key)
	best := -1
	var bestLoad int64
	ties := 0
	for i := range eps {
		e := &eps[i]
		load := e.InFlight.Load()
		if load >= int64(e.Capacity) {
			continue
		}
		switch {
		case best < 0 || load < bestLoad:
			best = i
			bestLoad = load
			ties = 1
		case load == bestLoad:
			ties++
			r = core.Splitmix64(r)
			if r%uint64(ties) == 0 {
				best = i
			}
		}
	}
	return best
}
