// Package frontend implements Dirigent's front-end load balancer (the
// HAProxy + keepalived tier in the paper's deployment, §5.1). It steers
// invocations to data plane replicas by a hash of the function ID, which
// "ensures all invocations of a particular function end up on the same
// data plane component and allows centralized tracking of the number of
// in-flight requests for each function" (paper §4). Failed data planes are
// taken out of rotation for a cooldown and traffic re-steers to the next
// replica on the ring.
//
// Replica membership is dynamic: with control plane addresses configured,
// Start runs a membership loop that polls the control plane's live data
// plane set (cp.ListDataPlanes, itself maintained by data plane
// heartbeats) and applies it through SetDataPlanes, so replicas joining,
// crashing, and reviving flow through to steering without restarting the
// front end. Homes are assigned by rendezvous (highest-random-weight)
// hashing, so a membership change re-steers only the functions homed on
// the replicas that actually changed — never the whole hash space.
package frontend

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
	"dirigent/internal/versioning"
)

// Config parameterizes the front-end load balancer.
type Config struct {
	// Transport carries invocations to data planes.
	Transport transport.Transport
	// DataPlanes lists the initial data plane replica addresses. With
	// ControlPlanes configured this is only the seed membership; the
	// membership loop replaces it as soon as it syncs.
	DataPlanes []string
	// ControlPlanes lists control plane replica addresses. When
	// non-empty, Start runs a membership loop that keeps the replica set
	// in sync with the control plane's live data plane set.
	ControlPlanes []string
	// MembershipInterval is the membership loop's poll period
	// (default 500 ms).
	MembershipInterval time.Duration
	// FailureCooldown is how long a data plane stays out of rotation
	// after a connection failure before being retried.
	FailureCooldown time.Duration
	// RequestTimeout bounds one invocation end to end.
	RequestTimeout time.Duration
	// Clock abstracts time for cooldowns and the membership loop.
	Clock clock.Clock
	// Versions, when non-nil, resolves logical function names to
	// versioned targets before steering (canary / blue-green splits; see
	// internal/versioning and paper §4, Limitations).
	Versions *versioning.Router
	// Metrics receives front-end telemetry.
	Metrics *telemetry.Registry
}

// replica is one data plane in the rotation, with its address hash
// precomputed for rendezvous steering.
type replica struct {
	addr string
	hash uint64
}

// LB is the front-end load balancer.
type LB struct {
	cfg     Config
	clk     clock.Clock
	metrics *telemetry.Registry
	cp      *cpclient.Client // nil without ControlPlanes

	mu       sync.Mutex
	replicas []replica
	downTil  map[string]time.Time
	seq      atomic.Uint64

	stopCh  chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	stopped atomic.Bool

	// The invoke path's counters are resolved once so it never takes the
	// registry's name-lookup lock.
	mInvocations      *telemetry.Counter
	mInvocationErrors *telemetry.Counter
	mFailovers        *telemetry.Counter
}

// ErrNoDataPlane reports that no data plane replica is available.
var ErrNoDataPlane = errors.New("frontend: no data plane available")

// New returns a front-end LB over the given data plane replicas.
func New(cfg Config) *LB {
	if cfg.FailureCooldown == 0 {
		cfg.FailureCooldown = 500 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 90 * time.Second
	}
	if cfg.MembershipInterval == 0 {
		cfg.MembershipInterval = 500 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	lb := &LB{
		cfg:     cfg,
		clk:     cfg.Clock,
		metrics: cfg.Metrics,
		downTil: make(map[string]time.Time),
		stopCh:  make(chan struct{}),

		mInvocations:      cfg.Metrics.Counter("invocations"),
		mInvocationErrors: cfg.Metrics.Counter("invocation_errors"),
		mFailovers:        cfg.Metrics.Counter("dataplane_failovers"),
	}
	lb.replicas = makeReplicas(cfg.DataPlanes)
	if len(cfg.ControlPlanes) > 0 {
		lb.cp = cpclient.New(cfg.Transport, cfg.ControlPlanes)
	}
	return lb
}

// Start launches the membership loop (a no-op without ControlPlanes —
// the replica set then stays whatever SetDataPlanes makes it). The first
// sync runs synchronously so a freshly started front end steers by live
// membership, not the static seed list, from its first invocation.
func (lb *LB) Start() error {
	if lb.cp == nil || !lb.started.CompareAndSwap(false, true) {
		return nil
	}
	lb.syncMembership()
	lb.wg.Add(1)
	go lb.membershipLoop()
	return nil
}

// Stop terminates the membership loop. Invocations keep working against
// the last synced replica set.
func (lb *LB) Stop() {
	if !lb.started.Load() || !lb.stopped.CompareAndSwap(false, true) {
		return
	}
	close(lb.stopCh)
	lb.wg.Wait()
}

func (lb *LB) membershipLoop() {
	defer lb.wg.Done()
	for {
		select {
		case <-lb.stopCh:
			return
		case <-lb.clk.After(lb.cfg.MembershipInterval):
			lb.syncMembership()
		}
	}
}

// syncMembership pulls the live data plane set from the control plane
// and applies it. Best effort: with no leader reachable the front end
// keeps steering over the last known set, which is exactly the
// availability-over-consistency behavior the paper's DP tier has during
// control plane failover (§3.4.2).
func (lb *LB) syncMembership() {
	ctx, cancel := context.WithTimeout(context.Background(), lb.cfg.MembershipInterval*4)
	defer cancel()
	// A membership poll is read-only, so any CP replica may answer it
	// from its applied state — with follower reads enabled the leader
	// never sees this traffic.
	respB, err := lb.cp.CallRead(ctx, proto.MethodListDataPlanes, nil)
	if err != nil {
		lb.metrics.Counter("membership_sync_errors").Inc()
		return
	}
	list, err := proto.UnmarshalDataPlaneList(respB)
	if err != nil {
		lb.metrics.Counter("membership_sync_errors").Inc()
		return
	}
	addrs := make([]string, 0, len(list.DataPlanes))
	for i := range list.DataPlanes {
		p := &list.DataPlanes[i]
		addrs = append(addrs, fmt.Sprintf("%s:%d", p.IP, p.Port))
	}
	// Never shrink a working set to nothing: a control plane that
	// transiently knows zero live replicas (fresh DB, sweep glitch, all
	// heartbeats missed at once) must not black the front end out while
	// the replicas themselves still serve. If they are truly gone, every
	// invoke fails over and the set heals on the next sync anyway.
	if len(addrs) == 0 && len(lb.Replicas()) > 0 {
		lb.metrics.Counter("membership_sync_empty").Inc()
		return
	}
	if lb.SetDataPlanes(addrs) {
		lb.metrics.Counter("membership_changes").Inc()
	}
	lb.metrics.Gauge("membership_size").Set(int64(len(addrs)))
}

// SetDataPlanes replaces the replica set (membership sync, or manual
// configuration without a control plane), reporting whether it changed.
// Cooldown state for replicas that left the set is dropped with them: a
// stale downTil entry would otherwise leak and instantly blacklist the
// address if a future replica reuses it.
func (lb *LB) SetDataPlanes(addrs []string) (changed bool) {
	next := makeReplicas(addrs)
	lb.mu.Lock()
	defer lb.mu.Unlock()
	if len(next) != len(lb.replicas) {
		changed = true
	} else {
		for i := range next {
			if next[i].addr != lb.replicas[i].addr {
				changed = true
				break
			}
		}
	}
	if !changed {
		return false
	}
	lb.replicas = next
	keep := make(map[string]bool, len(next))
	for _, r := range next {
		keep[r.addr] = true
	}
	for addr := range lb.downTil {
		if !keep[addr] {
			delete(lb.downTil, addr)
		}
	}
	return true
}

// Metrics returns the front end's telemetry registry (failovers,
// membership syncs/changes, invocation counters).
func (lb *LB) Metrics() *telemetry.Registry { return lb.metrics }

// Replicas returns the current replica addresses (sorted), for tests and
// harnesses observing membership sync.
func (lb *LB) Replicas() []string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make([]string, len(lb.replicas))
	for i, r := range lb.replicas {
		out[i] = r.addr
	}
	return out
}

// makeReplicas builds the sorted, hash-annotated replica list.
func makeReplicas(addrs []string) []replica {
	out := make([]replica, 0, len(addrs))
	for _, addr := range addrs {
		out = append(out, replica{addr: addr, hash: addrHash(addr)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// addrHash is FNV-1a folded through splitmix64, giving each replica an
// independent 64-bit identity for rendezvous weighting.
func addrHash(addr string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= prime64
	}
	return core.Splitmix64(h)
}

// rendezvousWeight scores one (function, replica) pair. The function's
// home is the replica with the highest weight; the rest of the candidate
// order follows decreasing weight. Unlike the modulo ring, removing a
// replica re-homes only the functions that ranked it first (1/n of the
// space on average), and adding one re-homes only the functions that now
// rank it first — minimal churn on membership change.
func rendezvousWeight(fnHash uint64, r replica) uint64 {
	return core.Splitmix64(fnHash ^ r.hash)
}

// pick returns the function's home, the replica candidates would put
// first, by one scan for the top rendezvous weight; ok is false while a
// replica is cooling down (or there is none) and the order has to be
// built. It is the whole of steering for an invocation that does not fail
// over, and allocates nothing.
func (lb *LB) pick(function string) (home string, ok bool) {
	lb.mu.Lock()
	reps := lb.replicas
	if len(lb.downTil) > 0 {
		now := lb.clk.Now()
		for addr, t := range lb.downTil {
			if !now.Before(t) {
				delete(lb.downTil, addr) // run out, the boundary instant included
			}
		}
	}
	cooling := len(lb.downTil) > 0
	lb.mu.Unlock()
	if cooling || len(reps) == 0 {
		return "", false
	}
	fnHash := core.Splitmix64(uint64(core.FunctionHash(function)))
	best, top := 0, rendezvousWeight(fnHash, reps[0])
	for i := 1; i < len(reps); i++ {
		if w := rendezvousWeight(fnHash, reps[i]); w > top {
			best, top = i, w
		}
	}
	return reps[best].addr, true
}

// candidates returns the replica order to try for a function: every
// replica by decreasing rendezvous weight (home first), with replicas in
// failure cooldown moved to the back as a final resort (in the same
// weight order). A replica whose cooldown has expired — the boundary
// instant included — rejoins the healthy order immediately.
//
// The mutex covers only the replica-slice load and the cooldown check:
// the slice and its elements are immutable once published (SetDataPlanes
// replaces the whole slice), so the per-invoke scoring and sort run
// outside the lock and invocations don't serialize on it.
func (lb *LB) candidates(function string) []string {
	lb.mu.Lock()
	reps := lb.replicas
	var cooling map[string]bool
	if len(lb.downTil) > 0 {
		now := lb.clk.Now()
		for addr, t := range lb.downTil {
			if now.Before(t) {
				if cooling == nil {
					cooling = make(map[string]bool, len(lb.downTil))
				}
				cooling[addr] = true
			}
		}
	}
	lb.mu.Unlock()
	n := len(reps)
	if n == 0 {
		return nil
	}
	fnHash := core.Splitmix64(uint64(core.FunctionHash(function)))
	type scored struct {
		addr   string
		weight uint64
	}
	order := make([]scored, n)
	for i, r := range reps {
		order[i] = scored{addr: r.addr, weight: rendezvousWeight(fnHash, r)}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].weight > order[j].weight })
	healthy := make([]string, 0, n)
	var cool []string
	for _, s := range order {
		if cooling[s.addr] {
			cool = append(cool, s.addr)
			continue
		}
		healthy = append(healthy, s.addr)
	}
	return append(healthy, cool...)
}

func (lb *LB) markDown(addr string) {
	lb.mu.Lock()
	lb.downTil[addr] = lb.clk.Now().Add(lb.cfg.FailureCooldown)
	lb.mu.Unlock()
	lb.mFailovers.Inc()
}

// dpShuttingDownMsg is the exact error text the data plane uses for work
// rejected or failed because the replica is stopping (see
// dataplane.Stop and the invoke path's stopCh case). Matched verbatim so
// an application error that merely mentions shutting down cannot be
// mistaken for replica death.
const dpShuttingDownMsg = "data plane: shutting down"

// isFailoverErr reports whether an invocation failure means the replica
// itself is gone (fail over to the next candidate) rather than the
// application failing (report to the client). Beyond connection-level
// unreachability, a replica that answers "shutting down" is mid-crash:
// its queued work is being failed wholesale, and the request belongs on
// a survivor.
func isFailoverErr(err error) bool {
	if errors.Is(err, transport.ErrUnreachable) {
		return true
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		// Exact match: a nested application error that merely embeds the
		// text (a function whose own downstream call failed this way,
		// say) must not mark the healthy replica that relayed it down.
		return re.Msg == dpShuttingDownMsg
	}
	return false
}

// Invoke sends one invocation through the data plane tier and returns the
// decoded response. With a version router configured, the logical function
// name resolves to a versioned target first, so splits apply uniformly to
// every data plane.
//
// The request is encoded into a pooled frame, given back once a data
// plane has answered: its response is a frame of its own (the data plane
// marshals it), so nothing aliases the request. After a failed call the
// frame is never given back, even if a failover then succeeds, since the
// failed call's handler may still be reading it (a TCP call past its
// deadline).
func (lb *LB) Invoke(ctx context.Context, req *proto.InvokeRequest) (*proto.InvokeResponse, error) {
	if lb.cfg.Versions != nil {
		resolved := lb.cfg.Versions.Resolve(req.Function, lb.seq.Add(1))
		if resolved != req.Function {
			r := *req
			r.Function = resolved
			req = &r
		}
	}
	// With nothing cooling down only the home replica is worked out; the
	// rest of the order is built if that one has to be failed over.
	home, picked := lb.pick(req.Function)
	cands := []string{home}
	if !picked {
		cands = lb.candidates(req.Function)
	}
	if len(cands) == 0 {
		return nil, ErrNoDataPlane
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		if ctx.Done() == nil {
			// Nothing can cancel the caller's context, so the bound needs
			// no timer of its own unless a transport waits on Done.
			d := transport.NewDeadline(ctx, lb.cfg.RequestTimeout)
			defer d.Stop()
			ctx = d
		} else {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, lb.cfg.RequestTimeout)
			defer cancel()
		}
	}
	frame := transport.GetFrame()
	*frame = req.AppendTo(*frame)
	var lastErr error
	for i := 0; i < len(cands); i++ {
		addr := cands[i]
		respB, err := lb.cfg.Transport.Call(ctx, addr, proto.MethodInvoke, *frame)
		if err == nil {
			if lastErr == nil {
				transport.PutFrame(frame)
			}
			lb.mInvocations.Inc()
			return proto.UnmarshalInvokeResponse(respB)
		}
		lastErr = err
		if isFailoverErr(err) {
			// Replica-level failure: fail over to the next candidate.
			lb.markDown(addr)
			if picked {
				// Only the home had been worked out: go on through the others.
				picked = false
				cands = slices.DeleteFunc(lb.candidates(req.Function), func(a string) bool { return a == addr })
				i = -1
			}
			continue
		}
		// Application-level error from the data plane: report it.
		lb.mInvocationErrors.Inc()
		return nil, err
	}
	lb.mInvocationErrors.Inc()
	return nil, fmt.Errorf("%w: %v", ErrNoDataPlane, lastErr)
}
