// Control-plane leader failover over real TCP: a 3-replica CP tier runs
// the replicated Raft log while a burst of registrations is in flight,
// the leader is killed mid-burst, and every write the tier acknowledged
// must survive on the new leader — the acceptance bar for the HA tier
// (paper §5.4: CP failover loses no accepted work). The killed replica
// is then revived with an empty store and must catch up from the
// leader's log alone.
package e2e

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

func TestTCPCPLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP failover test skipped in -short mode")
	}
	tr := transport.NewTCP()
	t.Cleanup(func() { tr.Close() })

	// Raft peers name each other before they listen, so this test alone
	// probes for free ports, and another process may take one before the
	// replica binds it: the group's start is retried once on that.
	const replicas = 3
	addrs := make([]string, replicas)
	stores := make([]*store.Store, replicas)
	cps := make([]*controlplane.ControlPlane, replicas)
	newCP := func(i int, rejoin bool) *controlplane.ControlPlane {
		return controlplane.New(controlplane.Config{
			Addr:              addrs[i],
			Peers:             addrs,
			Transport:         tr,
			DB:                stores[i],
			FollowerReads:     true,
			ReadLease:         200 * time.Millisecond,
			RaftHeartbeat:     20 * time.Millisecond,
			RaftElectionMin:   60 * time.Millisecond,
			RaftElectionMax:   120 * time.Millisecond,
			RaftRejoin:        rejoin,
			AutoscaleInterval: 50 * time.Millisecond,
			HeartbeatTimeout:  2 * time.Second,
		})
	}
	startGroup := func() error {
		for i := range addrs {
			probe, err := tr.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) { return nil, nil })
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = probe.Addr()
			probe.Close()
		}
		for i := range cps {
			stores[i] = store.NewMemory()
			cps[i] = newCP(i, false)
			if err := cps[i].Start(); err != nil {
				for _, cp := range cps[:i] {
					cp.Stop()
				}
				return err
			}
		}
		return nil
	}
	err := startGroup()
	if errors.Is(err, syscall.EADDRINUSE) {
		t.Logf("retrying the group's start: %v", err)
		err = startGroup()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, cp := range cps {
			cp.Stop()
		}
	})

	leaderIndex := func() int {
		for i, cp := range cps {
			if cp != nil && cp.IsLeader() {
				return i
			}
		}
		return -1
	}
	awaitLeader := func(timeout time.Duration) int {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if i := leaderIndex(); i >= 0 {
				return i
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("no CP leader elected within %v", timeout)
		return -1
	}
	awaitLeader(10 * time.Second)

	client := cpclient.New(tr, addrs)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Burst: 4 writers register functions through the leader; every name
	// whose registration was acknowledged is recorded as accepted.
	const writers, perWriter = 4, 20
	var (
		mu       sync.Mutex
		accepted []string
		done     atomic.Int64
		killOnce sync.Once
		killed   = -1
	)
	killReady := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				fn := core.Function{
					Name:    fmt.Sprintf("tcpha-w%d-%d", w, j),
					Image:   "registry.local/tcpha",
					Port:    8080,
					Scaling: core.DefaultScalingConfig(),
				}
				if _, err := client.CallWithRetry(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
					t.Errorf("writer %d: register %s: %v", w, fn.Name, err)
					continue
				}
				mu.Lock()
				accepted = append(accepted, fn.Name)
				mu.Unlock()
				if done.Add(1) == writers*perWriter/2 {
					killOnce.Do(func() { close(killReady) })
				}
			}
		}(w)
	}
	// Kill the leader halfway through the burst; the writers ride through
	// the election via CallWithRetry.
	select {
	case <-killReady:
	case <-ctx.Done():
		t.Fatal("burst stalled before reaching the kill point")
	}
	if killed = leaderIndex(); killed < 0 {
		killed = awaitLeader(5 * time.Second)
	}
	cps[killed].Stop()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every acknowledged registration must be visible through the tier:
	// committed at quorum, so the new leader recovered it from its own
	// applied log.
	raw, err := client.CallWithRetry(ctx, proto.MethodListFunctions, nil)
	if err != nil {
		t.Fatalf("list after failover: %v", err)
	}
	list, err := proto.UnmarshalFunctionList(raw)
	if err != nil {
		t.Fatalf("decode list: %v", err)
	}
	have := make(map[string]bool, len(list.Functions))
	for _, fn := range list.Functions {
		have[fn.Name] = true
	}
	mu.Lock()
	names := append([]string(nil), accepted...)
	mu.Unlock()
	lost := 0
	for _, name := range names {
		if !have[name] {
			lost++
			t.Errorf("accepted registration %q lost across CP failover", name)
		}
	}
	if lost == 0 && len(names) != writers*perWriter {
		t.Errorf("only %d/%d registrations acknowledged", len(names), writers*perWriter)
	}

	// Revive the killed replica with an empty store: it rejoins the group
	// (withholding votes until caught up) and converges on the tier state
	// purely from the leader's log backtracking.
	stores[killed] = store.NewMemory()
	cps[killed] = newCP(killed, true)
	if err := cps[killed].Start(); err != nil {
		t.Fatalf("revive CP %d: %v", killed, err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if len(stores[killed].HGetAll("functions")) >= len(names) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(stores[killed].HGetAll("functions")); got < len(names) {
		t.Errorf("revived replica caught up %d/%d functions", got, len(names))
	}
}
