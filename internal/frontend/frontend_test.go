package frontend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// fakeDP serves dp.Invoke and records which functions it saw.
type fakeDP struct {
	mu    sync.Mutex
	seen  []string
	fail  bool
	addr  string
	tr    *transport.InProc
	ln    transport.Listener
	calls int
}

func newFakeDP(t *testing.T, tr *transport.InProc, addr string) *fakeDP {
	t.Helper()
	dp := &fakeDP{addr: addr, tr: tr}
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		if method != proto.MethodInvoke {
			return nil, fmt.Errorf("unexpected method %s", method)
		}
		req, err := proto.UnmarshalInvokeRequest(payload)
		if err != nil {
			return nil, err
		}
		dp.mu.Lock()
		dp.seen = append(dp.seen, req.Function)
		dp.calls++
		fail := dp.fail
		dp.mu.Unlock()
		if fail {
			return nil, errors.New("boom")
		}
		resp := proto.InvokeResponse{Body: []byte(dp.addr)}
		return resp.Marshal(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.ln = ln
	t.Cleanup(func() { ln.Close() })
	return dp
}

func TestSteersByFunctionHash(t *testing.T) {
	tr := transport.NewInProc()
	dps := []*fakeDP{
		newFakeDP(t, tr, "dp0"),
		newFakeDP(t, tr, "dp1"),
		newFakeDP(t, tr, "dp2"),
	}
	lb := New(Config{Transport: tr, DataPlanes: []string{"dp0", "dp1", "dp2"}})
	ctx := context.Background()
	// All invocations of the same function must land on the same replica.
	for i := 0; i < 10; i++ {
		if _, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: "sticky"}); err != nil {
			t.Fatal(err)
		}
	}
	hit := 0
	for _, dp := range dps {
		dp.mu.Lock()
		if dp.calls > 0 {
			hit++
			if dp.calls != 10 {
				t.Errorf("replica %s got %d/10 calls", dp.addr, dp.calls)
			}
		}
		dp.mu.Unlock()
	}
	if hit != 1 {
		t.Errorf("function spread across %d replicas, want 1", hit)
	}
}

func TestDifferentFunctionsSpread(t *testing.T) {
	tr := transport.NewInProc()
	dps := []*fakeDP{
		newFakeDP(t, tr, "dp0"),
		newFakeDP(t, tr, "dp1"),
		newFakeDP(t, tr, "dp2"),
	}
	lb := New(Config{Transport: tr, DataPlanes: []string{"dp0", "dp1", "dp2"}})
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		fn := fmt.Sprintf("fn-%d", i)
		if _, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: fn}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dp := range dps {
		dp.mu.Lock()
		if dp.calls == 0 {
			t.Errorf("replica %s received no traffic across 60 functions", dp.addr)
		}
		dp.mu.Unlock()
	}
}

func TestFailsOverOnUnreachableReplica(t *testing.T) {
	tr := transport.NewInProc()
	newFakeDP(t, tr, "dp-alive")
	lb := New(Config{
		Transport:       tr,
		DataPlanes:      []string{"dp-dead", "dp-alive"},
		FailureCooldown: time.Minute,
	})
	ctx := context.Background()
	// Find a function that hashes to the dead replica first.
	for i := 0; i < 100; i++ {
		fn := fmt.Sprintf("probe-%d", i)
		resp, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: fn})
		if err != nil {
			t.Fatalf("invoke %s: %v", fn, err)
		}
		if string(resp.Body) != "dp-alive" {
			t.Fatalf("response from unexpected replica %q", resp.Body)
		}
	}
	if lb.metrics.Counter("dataplane_failovers").Value() == 0 {
		t.Errorf("no failovers recorded although one replica is dead")
	}
}

func TestApplicationErrorsAreNotFailovers(t *testing.T) {
	tr := transport.NewInProc()
	dp := newFakeDP(t, tr, "dp0")
	dp.fail = true
	lb := New(Config{Transport: tr, DataPlanes: []string{"dp0"}})
	_, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: "f"})
	if err == nil {
		t.Fatalf("expected application error")
	}
	if errors.Is(err, ErrNoDataPlane) {
		t.Errorf("application error misreported as no-data-plane: %v", err)
	}
}

func TestNoDataPlanes(t *testing.T) {
	lb := New(Config{Transport: transport.NewInProc()})
	if _, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: "f"}); !errors.Is(err, ErrNoDataPlane) {
		t.Errorf("err = %v, want ErrNoDataPlane", err)
	}
}

func TestAllReplicasDown(t *testing.T) {
	tr := transport.NewInProc()
	lb := New(Config{Transport: tr, DataPlanes: []string{"d0", "d1"}})
	if _, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: "f"}); !errors.Is(err, ErrNoDataPlane) {
		t.Errorf("err = %v, want ErrNoDataPlane", err)
	}
}

func TestSetDataPlanes(t *testing.T) {
	tr := transport.NewInProc()
	newFakeDP(t, tr, "late")
	lb := New(Config{Transport: tr, DataPlanes: []string{"gone"}})
	lb.SetDataPlanes([]string{"late"})
	if _, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: "f"}); err != nil {
		t.Errorf("invoke after SetDataPlanes: %v", err)
	}
}

func TestCooldownExpires(t *testing.T) {
	tr := transport.NewInProc()
	lb := New(Config{
		Transport:       tr,
		DataPlanes:      []string{"flaky"},
		FailureCooldown: 10 * time.Millisecond,
	})
	// First call fails and puts the replica in cooldown.
	lb.Invoke(context.Background(), &proto.InvokeRequest{Function: "f"})
	// Replica comes back.
	newFakeDP(t, tr, "flaky")
	time.Sleep(20 * time.Millisecond)
	if _, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: "f"}); err != nil {
		t.Errorf("invoke after cooldown: %v", err)
	}
}

// TestConcurrentInvokesKeepTheirPayloads: parallel invocations through
// one front end, each with its own payload, each get their own echo back.
// The data planes here read the request frame in place, as the real one
// does. Every fourth call fails with an application error, and every
// fourth call but one fails on its first replica as one shutting down and
// succeeds on the other; either way the failed replica keeps reading the
// frame afterwards, as a cold dispatch that outlives its handler does. A
// pooled frame given back too early, or after a failed call, shows as
// another caller's bytes.
func TestConcurrentInvokesKeepTheirPayloads(t *testing.T) {
	const (
		callers = 8
		iters   = 300
	)
	tr := transport.NewInProc()
	var late sync.WaitGroup
	var failedOver sync.Map // payloads one replica has already failed
	readLate := func(body []byte) {
		want := string(body)
		late.Add(1)
		go func() {
			defer late.Done()
			for i := 0; i < 200; i++ {
				runtime.Gosched()
			}
			if string(body) != want {
				t.Errorf("a failed call's frame was reused: %q, want %q", body, want)
			}
		}()
	}
	for _, addr := range []string{"dp0", "dp1"} {
		ln, err := tr.Listen(addr, func(_ string, payload []byte) ([]byte, error) {
			_, _, body, err := proto.DecodeInvokeRequest(payload)
			if err != nil {
				return nil, err
			}
			runtime.Gosched()
			switch {
			case bytes.HasSuffix(body, []byte("-fail")):
				readLate(body)
				return nil, errors.New("application error")
			case bytes.HasSuffix(body, []byte("-failover")):
				if _, seen := failedOver.LoadOrStore(string(body), true); !seen {
					readLate(body)
					return nil, errors.New(dpShuttingDownMsg)
				}
			}
			resp := proto.InvokeResponse{Body: body}
			return resp.Marshal(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
	}
	lb := New(Config{Transport: tr, DataPlanes: []string{"dp0", "dp1"}})

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				payload := fmt.Sprintf("caller-%d-call-%04d-%s", g, i, strings.Repeat("p", g*8))
				switch i % 4 {
				case 1:
					payload += "-failover"
				case 3:
					payload += "-fail"
				}
				resp, err := lb.Invoke(context.Background(), &proto.InvokeRequest{Function: "f", Payload: []byte(payload)})
				if i%4 == 3 {
					if err == nil {
						t.Errorf("caller %d call %d: want the application error", g, i)
					}
					continue
				}
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if string(resp.Body) != payload {
					t.Errorf("caller %d call %d: body %q, want its own payload %q", g, i, resp.Body, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	late.Wait()
}
