// Package e2e runs the full Dirigent stack — control plane replicas, data
// planes, and workers as separate listeners — over the real TCP transport,
// exercising the same deployment shape as the cmd/ binaries.
package e2e

import (
	"context"
	"sync"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

type tcpStack struct {
	tr      *transport.TCP
	cp      *controlplane.ControlPlane
	dp      *dataplane.DataPlane
	w       *worker.Worker
	lb      *frontend.LB
	cpAddr  string
	images  *worker.ImageRegistry
	cleanup []func()
}

func startTCPStack(t *testing.T) *tcpStack {
	t.Helper()
	tr := transport.NewTCP()
	s := &tcpStack{tr: tr}
	s.cleanup = append(s.cleanup, func() { tr.Close() })

	// Every component listens on an ephemeral port and is reached at the
	// address it reports once started.
	cp := controlplane.New(controlplane.Config{
		Addr:              "127.0.0.1:0",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	s.cp, s.cpAddr = cp, cp.Addr()
	s.cleanup = append(s.cleanup, cp.Stop)

	dp := dataplane.New(dataplane.Config{
		ID:             1,
		Addr:           "127.0.0.1:0",
		Transport:      tr,
		ControlPlanes:  []string{s.cpAddr},
		MetricInterval: 15 * time.Millisecond,
		QueueTimeout:   10 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	s.dp = dp
	s.cleanup = append(s.cleanup, dp.Stop)

	s.images = worker.NewImageRegistry()
	w := worker.New(worker.Config{
		Node: core.WorkerNode{
			ID: 1, Name: "w1", IP: "127.0.0.1",
			CPUMilli: 10000, MemoryMB: 65536,
		},
		Addr:              "127.0.0.1:0",
		Runtime:           sandbox.NewContainerd(sandbox.Config{LatencyScale: 0, NodeIP: [4]byte{127, 0, 0, 1}, Seed: 1}),
		Transport:         tr,
		ControlPlanes:     []string{s.cpAddr},
		HeartbeatInterval: 100 * time.Millisecond,
		Images:            s.images,
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	s.w = w
	s.cleanup = append(s.cleanup, w.Stop)

	s.lb = frontend.New(frontend.Config{
		Transport:  tr,
		DataPlanes: []string{dp.Addr()},
	})

	t.Cleanup(func() {
		for i := len(s.cleanup) - 1; i >= 0; i-- {
			s.cleanup[i]()
		}
	})
	return s
}

func splitHostPort(addr string) (string, uint16, bool) {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			var port uint16
			for _, c := range addr[i+1:] {
				port = port*10 + uint16(c-'0')
			}
			return addr[:i], port, true
		}
	}
	return addr, 0, false
}

func TestTCPEndToEndInvoke(t *testing.T) {
	s := startTCPStack(t)
	s.images.Register("img", func(p []byte) ([]byte, error) {
		return append([]byte("tcp:"), p...), nil
	})
	fn := core.Function{Name: "f", Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.StableWindow = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.tr.Call(ctx, s.cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatalf("register: %v", err)
	}
	resp, err := s.lb.Invoke(ctx, &proto.InvokeRequest{Function: "f", Payload: []byte("hello")})
	if err != nil {
		t.Fatalf("cold invoke: %v", err)
	}
	if !resp.ColdStart || string(resp.Body) != "tcp:hello" {
		t.Errorf("resp = %+v", resp)
	}
	resp, err = s.lb.Invoke(ctx, &proto.InvokeRequest{Function: "f", Payload: []byte("again")})
	if err != nil {
		t.Fatalf("warm invoke: %v", err)
	}
	if resp.ColdStart {
		t.Errorf("second invocation should be warm")
	}
}

func TestTCPConcurrentInvocations(t *testing.T) {
	s := startTCPStack(t)
	fn := core.Function{Name: "f", Image: "img", Port: 8080, Scaling: core.DefaultScalingConfig()}
	fn.Scaling.StableWindow = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := s.tr.Call(ctx, s.cpAddr, proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
		t.Fatalf("register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.lb.Invoke(ctx, &proto.InvokeRequest{Function: "f"}); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestTCPClusterStatus(t *testing.T) {
	s := startTCPStack(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Wait for the worker's registration to land.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.cp.WorkerCount() == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	out, err := s.tr.Call(ctx, s.cpAddr, proto.MethodClusterStatus, nil)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if len(out) == 0 {
		t.Errorf("empty status")
	}
}
