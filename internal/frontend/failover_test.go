package frontend

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
	"dirigent/internal/versioning"
)

// TestCooldownExpiryBoundary pins the cooldown semantics on the virtual
// clock: a replica marked down is skipped strictly before downTil and
// rejoins the healthy rotation at exactly downTil — the boundary instant
// is "expired", matching time.Before.
func TestCooldownExpiryBoundary(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(9000, 0))
	alive := newFakeDP(t, tr, "dp-alive")
	lb := New(Config{
		Transport:       tr,
		DataPlanes:      []string{"dp-alive", "dp-flaky"},
		FailureCooldown: 10 * time.Second,
		Clock:           vclk,
	})

	// Find a function homed on dp-flaky so its failure actually triggers
	// a failover from the home replica.
	var fn string
	for i := 0; ; i++ {
		fn = fmt.Sprintf("boundary-%d", i)
		if lb.candidates(fn)[0] == "dp-flaky" {
			break
		}
	}
	if _, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: fn}); err != nil {
		t.Fatalf("invoke with live fallback: %v", err)
	}
	alive.mu.Lock()
	served := alive.calls
	alive.mu.Unlock()
	if served != 1 {
		t.Fatalf("fallback replica served %d calls, want 1", served)
	}

	// Strictly inside the cooldown the home replica is a last resort.
	vclk.Advance(10*time.Second - time.Nanosecond)
	if cands := lb.candidates(fn); cands[0] != "dp-alive" || cands[1] != "dp-flaky" {
		t.Fatalf("inside cooldown: candidates = %v, want flaky last", cands)
	}
	// At exactly downTil the replica rejoins the healthy order (and,
	// being the rendezvous home, leads it again).
	vclk.Advance(time.Nanosecond)
	if cands := lb.candidates(fn); cands[0] != "dp-flaky" {
		t.Fatalf("at cooldown boundary: candidates = %v, want flaky first", cands)
	}
}

// TestAllReplicasCoolingLastResortOrder: with every replica in cooldown,
// invocations are not failed outright — the cooling replicas are tried
// as a last resort, in home (rendezvous) order.
func TestAllReplicasCoolingLastResortOrder(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(9000, 0))
	lb := New(Config{
		Transport:       tr,
		DataPlanes:      []string{"dp-a", "dp-b", "dp-c"},
		FailureCooldown: time.Minute,
		Clock:           vclk,
	})
	const fn = "all-cooling"
	home := lb.candidates(fn)
	for _, addr := range home {
		lb.markDown(addr)
	}
	cooling := lb.candidates(fn)
	if len(cooling) != 3 {
		t.Fatalf("cooling candidates = %v, want all 3", cooling)
	}
	for i := range home {
		if cooling[i] != home[i] {
			t.Fatalf("last-resort order %v != home order %v", cooling, home)
		}
	}
	// A replica that comes back while every peer is still cooling serves
	// the last-resort attempt.
	newFakeDP(t, tr, home[1])
	resp, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: fn})
	if err != nil {
		t.Fatalf("all-cooling invoke: %v", err)
	}
	if string(resp.Body) != home[1] {
		t.Fatalf("served by %q, want last-resort %q", resp.Body, home[1])
	}
}

// TestMembershipChangeMidFlight: an invocation that computed its
// candidate order before a membership change completes against the old
// order's survivors, while new invocations steer by the new set — no
// request is stranded by the transition.
func TestMembershipChangeMidFlight(t *testing.T) {
	tr := transport.NewInProc()
	release := make(chan struct{})
	started := make(chan struct{}, 16)

	// dp-slow blocks mid-request so the membership change lands while
	// the invocation is in flight.
	slowLn, err := tr.Listen("dp-slow", func(method string, payload []byte) ([]byte, error) {
		started <- struct{}{}
		<-release
		return (&proto.InvokeResponse{Body: []byte("dp-slow")}).Marshal(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slowLn.Close()
	newFakeDP(t, tr, "dp-stay")

	lb := New(Config{Transport: tr, DataPlanes: []string{"dp-slow", "dp-stay"}})
	var fn string
	for i := 0; ; i++ {
		fn = fmt.Sprintf("midflight-%d", i)
		if lb.candidates(fn)[0] == "dp-slow" {
			break
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: fn})
		done <- err
	}()
	<-started
	// Membership drops dp-slow while the request is inside it.
	lb.SetDataPlanes([]string{"dp-stay"})
	if cands := lb.candidates(fn); len(cands) != 1 || cands[0] != "dp-stay" {
		t.Fatalf("new candidates = %v, want [dp-stay]", cands)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("mid-flight invocation failed after membership change: %v", err)
	}
}

// TestSetDataPlanesDropsStaleCooldown: cooldown state must leave the LB
// with the replica. Without the GC, an address removed while cooling and
// later re-added (replica restarted on the same host:port) would start
// blacklisted for the residual cooldown.
func TestSetDataPlanesDropsStaleCooldown(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(9000, 0))
	lb := New(Config{
		Transport:       tr,
		DataPlanes:      []string{"dp-a", "dp-b"},
		FailureCooldown: time.Hour,
		Clock:           vclk,
	})
	lb.markDown("dp-a")
	lb.SetDataPlanes([]string{"dp-b"})         // dp-a leaves
	lb.SetDataPlanes([]string{"dp-a", "dp-b"}) // dp-a returns, hour not elapsed

	var fn string
	for i := 0; ; i++ {
		fn = fmt.Sprintf("gc-%d", i)
		if lb.candidates(fn)[0] == "dp-a" {
			break
		}
	}
	// dp-a leads again: the stale cooldown entry is gone.
	lb.mu.Lock()
	_, stillDown := lb.downTil["dp-a"]
	lb.mu.Unlock()
	if stillDown {
		t.Fatalf("downTil entry for removed replica survived SetDataPlanes")
	}
}

// TestVersionRouterSteersPerResolvedVersion: the version router resolves
// before steering, so each version of a function gets its own rendezvous
// home — a canary split across versions also splits across the replicas
// that home them, and cooldown failover applies per resolved target.
func TestVersionRouterSteersPerResolvedVersion(t *testing.T) {
	tr := transport.NewInProc()
	dps := map[string]*fakeDP{
		"dp-0": newFakeDP(t, tr, "dp-0"),
		"dp-1": newFakeDP(t, tr, "dp-1"),
		"dp-2": newFakeDP(t, tr, "dp-2"),
	}
	router := versioning.NewRouter()
	if err := router.SetSplit("api",
		versioning.Version{Function: "api@v1", Weight: 1},
		versioning.Version{Function: "api@v2", Weight: 1},
	); err != nil {
		t.Fatal(err)
	}
	lb := New(Config{
		Transport:  tr,
		DataPlanes: []string{"dp-0", "dp-1", "dp-2"},
		Versions:   router,
	})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: "api"}); err != nil {
			t.Fatal(err)
		}
	}
	// Every replica saw only resolved version names, each sticky to its
	// own home.
	perVersion := map[string]map[string]bool{}
	total := 0
	for addr, dp := range dps {
		dp.mu.Lock()
		for _, seen := range dp.seen {
			if seen != "api@v1" && seen != "api@v2" {
				t.Fatalf("replica %s saw unresolved name %q", addr, seen)
			}
			if perVersion[seen] == nil {
				perVersion[seen] = map[string]bool{}
			}
			perVersion[seen][addr] = true
			total++
		}
		dp.mu.Unlock()
	}
	if total != 200 {
		t.Fatalf("replicas saw %d invocations, want 200", total)
	}
	for v, homes := range perVersion {
		if len(homes) != 1 {
			t.Errorf("version %s spread across %d replicas, want a single home", v, len(homes))
		}
	}
	if len(perVersion) != 2 {
		t.Errorf("versions served: %v, want both api@v1 and api@v2", perVersion)
	}
}

// TestRendezvousMinimalChurn: removing one replica must re-home only the
// functions whose home was the removed replica; every other function
// keeps its home (the property the modulo ring lacked, where one
// membership change re-homed nearly everything).
func TestRendezvousMinimalChurn(t *testing.T) {
	lb := New(Config{
		Transport:  transport.NewInProc(),
		DataPlanes: []string{"dp-0", "dp-1", "dp-2", "dp-3"},
	})
	const fns = 400
	before := make(map[string]string, fns)
	onRemoved := 0
	for i := 0; i < fns; i++ {
		fn := fmt.Sprintf("churn-%d", i)
		before[fn] = lb.candidates(fn)[0]
		if before[fn] == "dp-3" {
			onRemoved++
		}
	}
	if onRemoved == 0 || onRemoved == fns {
		t.Fatalf("degenerate home distribution: %d/%d on dp-3", onRemoved, fns)
	}
	lb.SetDataPlanes([]string{"dp-0", "dp-1", "dp-2"})
	for fn, home := range before {
		got := lb.candidates(fn)[0]
		if home == "dp-3" {
			if got == "dp-3" {
				t.Fatalf("function %s still homed on removed replica", fn)
			}
			continue
		}
		if got != home {
			t.Fatalf("function %s re-homed %s → %s although its home survived", fn, home, got)
		}
	}
	// Adding the replica back restores the original assignment exactly.
	lb.SetDataPlanes([]string{"dp-0", "dp-1", "dp-2", "dp-3"})
	for fn, home := range before {
		if got := lb.candidates(fn)[0]; got != home {
			t.Fatalf("function %s not restored to %s after re-add (got %s)", fn, home, got)
		}
	}
}

// TestMembershipSyncFromControlPlane: Start polls cp.ListDataPlanes on
// the injected clock and applies membership changes, including dropping
// cooldown state with removed replicas.
func TestMembershipSyncFromControlPlane(t *testing.T) {
	tr := transport.NewInProc()
	vclk := clock.NewVirtual(time.Unix(9000, 0))

	var mu sync.Mutex
	live := []core.DataPlane{{ID: 1, IP: "dp-a", Port: 8000}, {ID: 2, IP: "dp-b", Port: 8000}}
	ln, err := tr.Listen("cp0", func(method string, payload []byte) ([]byte, error) {
		if method != proto.MethodListDataPlanes {
			return nil, fmt.Errorf("unexpected method %s", method)
		}
		mu.Lock()
		defer mu.Unlock()
		list := proto.DataPlaneList{DataPlanes: append([]core.DataPlane(nil), live...)}
		return list.Marshal(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	lb := New(Config{
		Transport:          tr,
		ControlPlanes:      []string{"cp0"},
		MembershipInterval: time.Second,
		Clock:              vclk,
	})
	if err := lb.Start(); err != nil {
		t.Fatal(err)
	}
	defer lb.Stop()
	// The first sync is synchronous in Start.
	if got := lb.Replicas(); len(got) != 2 || got[0] != "dp-a:8000" || got[1] != "dp-b:8000" {
		t.Fatalf("initial membership = %v", got)
	}

	// Membership shrinks at the control plane; the next poll applies it.
	mu.Lock()
	live = live[:1]
	mu.Unlock()
	// Wait for the loop to arm its poll timer before advancing the clock.
	armDeadline := time.Now().Add(2 * time.Second)
	for vclk.PendingTimers() == 0 && time.Now().Before(armDeadline) {
		time.Sleep(time.Millisecond)
	}
	vclk.Advance(time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := lb.Replicas(); len(got) == 1 && got[0] == "dp-a:8000" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership never shrank: %v", lb.Replicas())
		}
		time.Sleep(time.Millisecond)
	}
	if lb.metrics.Counter("membership_changes").Value() < 1 {
		t.Errorf("membership change not counted")
	}
}

// TestShuttingDownReplicaFailsOver: a replica answering "shutting down"
// is mid-crash; the front end must fail over instead of surfacing the
// error, so a data plane kill mid-burst loses no accepted invocation.
func TestShuttingDownReplicaFailsOver(t *testing.T) {
	tr := transport.NewInProc()
	ln, err := tr.Listen("dp-dying", func(string, []byte) ([]byte, error) {
		return nil, fmt.Errorf("data plane: shutting down")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	newFakeDP(t, tr, "dp-alive")
	lb := New(Config{Transport: tr, DataPlanes: []string{"dp-dying", "dp-alive"}})
	var fn string
	for i := 0; ; i++ {
		fn = fmt.Sprintf("dying-%d", i)
		if lb.candidates(fn)[0] == "dp-dying" {
			break
		}
	}
	resp, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: fn})
	if err != nil {
		t.Fatalf("invoke across dying replica: %v", err)
	}
	if string(resp.Body) != "dp-alive" {
		t.Fatalf("served by %q, want the survivor", resp.Body)
	}
	if lb.metrics.Counter("dataplane_failovers").Value() == 0 {
		t.Errorf("shutdown failover not counted")
	}
}

// TestPickIsFirstCandidate: over seeded random memberships and cooldown
// sets, the scan that steers an invocation that does not fail over names
// the replica the full order would put first; it declines while any
// cooldown is running, answers again the instant the last one has run
// out, and allocates nothing.
func TestPickIsFirstCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vclk := clock.NewVirtual(time.Unix(9000, 0))
	lb := New(Config{Transport: transport.NewInProc(), FailureCooldown: time.Second, Clock: vclk})
	for round := 0; round < 200; round++ {
		addrs := make([]string, rng.Intn(9))
		for i := range addrs {
			addrs[i] = fmt.Sprintf("dp-%d-%d", round, rng.Intn(1000))
		}
		lb.SetDataPlanes(addrs)
		members := lb.Replicas() // without duplicates
		down := 0
		if len(members) > 0 {
			down = rng.Intn(len(members) + 1)
		}
		for _, i := range rng.Perm(len(members))[:down] {
			lb.markDown(members[i])
		}
		for step := 0; step < 2; step++ { // cooling, then expired
			for i := 0; i < 50; i++ {
				fn := fmt.Sprintf("fn-%d", rng.Int())
				home, ok := lb.pick(fn)
				switch cands := lb.candidates(fn); {
				case len(members) == 0 || (step == 0 && down > 0):
					if ok {
						t.Fatalf("round %d: pick answered %q with %d members and %d cooling", round, home, len(members), down)
					}
				case !ok || home != cands[0]:
					t.Fatalf("round %d: pick = %q, %v; candidates = %v", round, home, ok, cands)
				}
			}
			vclk.Advance(time.Second)
		}
		if len(members) > 0 {
			if allocs := testing.AllocsPerRun(100, func() { lb.pick("fn-steady") }); allocs != 0 {
				t.Fatalf("round %d: pick allocates %.1f times with nothing cooling, want 0", round, allocs)
			}
		}
	}
}
