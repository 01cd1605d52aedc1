package fleet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/fleet"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// recordingTransport counts every Call by (addr, method) so tests can
// assert what each tier saw on the wire, not just end states.
type recordingTransport struct {
	transport.Transport
	mu    sync.Mutex
	calls map[string]map[string]int
}

func newRecordingTransport(inner transport.Transport) *recordingTransport {
	return &recordingTransport{Transport: inner, calls: make(map[string]map[string]int)}
}

func (r *recordingTransport) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	r.mu.Lock()
	m := r.calls[addr]
	if m == nil {
		m = make(map[string]int)
		r.calls[addr] = m
	}
	m[method]++
	r.mu.Unlock()
	return r.Transport.Call(ctx, addr, method, payload)
}

func (r *recordingTransport) count(addr, method string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[addr][method]
}

// TestLivenessWireShape pins the liveness protocol on the wire: every
// worker registers and heartbeats the control plane directly, one
// singleton RegisterWorker per worker and one singleton WorkerHeartbeat
// per beat.
func TestLivenessWireShape(t *testing.T) {
	const size = 24
	tr := newRecordingTransport(transport.NewInProc())
	cp := controlplane.New(controlplane.Config{
		Addr:              "wire-cp",
		Transport:         tr,
		DB:                store.NewMemory(),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour, // liveness driven explicitly
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	fl := fleet.New(fleet.Config{
		Size:              size,
		Transport:         tr,
		ControlPlanes:     []string{"wire-cp"},
		HeartbeatInterval: time.Hour, // beats driven explicitly
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()

	for round := 0; round < 2; round++ {
		for _, w := range fl.Workers() {
			w.SendHeartbeat()
		}
	}

	if got := tr.count("wire-cp", proto.MethodRegisterWorker); got != size {
		t.Errorf("CP saw %d singleton RegisterWorker RPCs, want %d", got, size)
	}
	if got := tr.count("wire-cp", proto.MethodWorkerHeartbeat); got != 2*size {
		t.Errorf("CP saw %d singleton WorkerHeartbeat RPCs, want %d", got, 2*size)
	}
	if got := cp.WorkerCount(); got != size {
		t.Fatalf("WorkerCount = %d, want %d", got, size)
	}
}
