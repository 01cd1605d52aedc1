package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSandboxRecordIs16Bytes(t *testing.T) {
	// The paper's headline state-size claim: 16 bytes per sandbox vs a
	// 17 KB K8s Pod object (§3.2).
	if SandboxRecordSize != 16 {
		t.Fatalf("SandboxRecordSize = %d, want 16", SandboxRecordSize)
	}
	sb := Sandbox{ID: 7, Function: "f", Node: 3, IP: [4]byte{10, 0, 0, 1}, Port: 30001}
	rec := MarshalSandboxRecord(&sb)
	if len(rec) != 16 {
		t.Fatalf("record length %d", len(rec))
	}
}

func TestSandboxRecordRoundTrip(t *testing.T) {
	f := func(id uint64, node uint16, ip [4]byte, port uint16) bool {
		id &= (1 << 48) - 1 // record stores 48-bit IDs
		sb := Sandbox{
			ID:       SandboxID(id),
			Function: "some-function",
			Node:     NodeID(node),
			IP:       ip,
			Port:     port,
		}
		rec := MarshalSandboxRecord(&sb)
		gotID, gotHash, gotNode, gotIP, gotPort := UnmarshalSandboxRecord(rec)
		return gotID == sb.ID && gotNode == sb.Node && gotIP == ip &&
			gotPort == port && gotHash == FunctionHash("some-function")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFunctionMarshalRoundTrip(t *testing.T) {
	fn := &Function{
		Name:    "resize-image",
		Image:   "registry.example.com/resize:v3",
		Port:    8080,
		Runtime: "firecracker",
		Scaling: ScalingConfig{
			TargetConcurrency: 1,
			MinScale:          0,
			MaxScale:          50,
			StableWindow:      60 * time.Second,
			PanicWindow:       6 * time.Second,
			PanicThreshold:    2,
			ScaleToZeroGrace:  30 * time.Second,
			MaxScaleUpRate:    1000,
			CPUMilli:          250,
			MemoryMB:          512,
		},
	}
	b := MarshalFunction(fn)
	got, err := UnmarshalFunction(b)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if *got != *fn {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, fn)
	}
}

// TestMarshalFunctionSizesItsRecord: a record is written into a buffer of
// exactly its size, so marshaling a function allocates once.
func TestMarshalFunctionSizesItsRecord(t *testing.T) {
	for _, fn := range []*Function{
		{},
		{Name: "resize-image", Image: "registry.example.com/resize:v3", Runtime: "firecracker"},
	} {
		if b := MarshalFunction(fn); len(b) != cap(b) {
			t.Errorf("%q: a %d-byte record in a buffer of %d", fn.Name, len(b), cap(b))
		}
	}
}

func TestFunctionUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalFunction([]byte{0xFF}); err == nil {
		t.Errorf("expected error for truncated function record")
	}
}

func TestWorkerNodeMarshalRoundTrip(t *testing.T) {
	w := &WorkerNode{ID: 12, Name: "worker-12", IP: "10.0.0.12", Port: 9000, CPUMilli: 10000, MemoryMB: 65536}
	got, err := UnmarshalWorkerNode(MarshalWorkerNode(w))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if *got != *w {
		t.Errorf("round trip mismatch: got %+v want %+v", got, w)
	}
}

func TestDataPlaneMarshalRoundTrip(t *testing.T) {
	p := &DataPlane{ID: 2, IP: "dp1", Port: 8000}
	got, err := UnmarshalDataPlane(MarshalDataPlane(p))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if *got != *p {
		t.Errorf("round trip mismatch: got %+v want %+v", got, p)
	}
}

func TestFunctionValidate(t *testing.T) {
	cases := []struct {
		name string
		fn   Function
		ok   bool
	}{
		{"valid", Function{Name: "f", Image: "img", Port: 80}, true},
		{"no name", Function{Image: "img", Port: 80}, false},
		{"no image", Function{Name: "f", Port: 80}, false},
		{"no port", Function{Name: "f", Image: "img"}, false},
	}
	for _, tc := range cases {
		err := tc.fn.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSandboxStateString(t *testing.T) {
	states := map[SandboxState]string{
		SandboxCreating: "creating",
		SandboxBooting:  "booting",
		SandboxReady:    "ready",
		SandboxDraining: "draining",
		SandboxDead:     "dead",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if got := SandboxState(99).String(); got != "state(99)" {
		t.Errorf("unknown state = %q", got)
	}
}

func TestSandboxAddr(t *testing.T) {
	sb := Sandbox{IP: [4]byte{192, 168, 1, 5}, Port: 30500}
	if got := sb.Addr(); got != "192.168.1.5:30500" {
		t.Errorf("Addr = %q", got)
	}
}

func TestFunctionHashDistribution(t *testing.T) {
	// The front-end LB steers by function hash; a pathological hash would
	// funnel everything to one data plane. Check rough balance over 3
	// buckets for realistic function names.
	buckets := make([]int, 3)
	const n = 3000
	for i := 0; i < n; i++ {
		name := "function-" + string(rune('a'+i%26)) + "-" + itoa(i)
		buckets[int(FunctionHash(name))%3]++
	}
	for i, c := range buckets {
		if c < n/3-n/6 || c > n/3+n/6 {
			t.Errorf("bucket %d has %d of %d hashes; distribution too skewed", i, c, n)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestDefaultScalingConfigMatchesKnative(t *testing.T) {
	cfg := DefaultScalingConfig()
	if cfg.TargetConcurrency != 1 {
		t.Errorf("TargetConcurrency = %v, want 1 (FaaS default)", cfg.TargetConcurrency)
	}
	if cfg.StableWindow != 60*time.Second {
		t.Errorf("StableWindow = %v, want 60s (Knative default)", cfg.StableWindow)
	}
	if cfg.PanicWindow != 6*time.Second {
		t.Errorf("PanicWindow = %v, want 6s (10%% of stable)", cfg.PanicWindow)
	}
	if cfg.PanicThreshold != 2.0 {
		t.Errorf("PanicThreshold = %v, want 2.0", cfg.PanicThreshold)
	}
}

func TestAsyncTaskKeyOwner(t *testing.T) {
	key := AsyncTaskKey(7, 123)
	if key != "7-123" {
		t.Fatalf("AsyncTaskKey = %q", key)
	}
	if owner, ok := AsyncTaskOwner(key); !ok || owner != 7 {
		t.Fatalf("AsyncTaskOwner(%q) = %d, %v", key, owner, ok)
	}
	// Large sequence numbers keep the last dash as the separator.
	if owner, ok := AsyncTaskOwner(AsyncTaskKey(65535, 1<<60)); !ok || owner != 65535 {
		t.Fatalf("max owner: %d, %v", owner, ok)
	}
	for _, bad := range []string{"", "7", "-1", "7-", "x-1", "7x-1", "99999-1", "18446744073709551615-1"} {
		if _, ok := AsyncTaskOwner(bad); ok {
			t.Errorf("AsyncTaskOwner(%q) accepted", bad)
		}
	}
	if err := quick.Check(func(owner uint16, seq uint64) bool {
		got, ok := AsyncTaskOwner(AsyncTaskKey(DataPlaneID(owner), seq))
		return ok && got == DataPlaneID(owner)
	}, nil); err != nil {
		t.Error(err)
	}
}
