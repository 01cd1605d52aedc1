package sandbox

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
)

func fastConfig() Config {
	return Config{
		LatencyScale: 0, // no sleeps in unit tests
		NodeIP:       [4]byte{10, 0, 0, 1},
		Seed:         1,
	}
}

func spec(id core.SandboxID, image string) Spec {
	return Spec{
		ID: id,
		Function: core.Function{
			Name:    "fn",
			Image:   image,
			Port:    8080,
			Scaling: core.DefaultScalingConfig(),
		},
	}
}

func TestContainerdCreateKillList(t *testing.T) {
	rt := NewContainerd(fastConfig())
	inst, err := rt.Create(context.Background(), spec(1, "img"))
	if err != nil {
		t.Fatal(err)
	}
	if inst.ID != 1 || inst.Function != "fn" || inst.Addr == "" {
		t.Errorf("instance = %+v", inst)
	}
	if got := rt.List(); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("List = %v", got)
	}
	if rt.Count() != 1 {
		t.Errorf("Count = %d", rt.Count())
	}
	if err := rt.Kill(1); err != nil {
		t.Fatal(err)
	}
	if rt.Count() != 0 {
		t.Errorf("Count after kill = %d", rt.Count())
	}
	if err := rt.Kill(1); err == nil {
		t.Errorf("double kill should error")
	}
}

func TestContainerdUniqueAddrs(t *testing.T) {
	rt := NewContainerd(fastConfig())
	seen := make(map[string]bool)
	for i := 1; i <= 50; i++ {
		inst, err := rt.Create(context.Background(), spec(core.SandboxID(i), "img"))
		if err != nil {
			t.Fatal(err)
		}
		if seen[inst.Addr] {
			t.Fatalf("duplicate sandbox address %s", inst.Addr)
		}
		seen[inst.Addr] = true
	}
}

// TestSandboxAddrMatchesDottedQuad: the strconv-built address reads as
// fmt's "%d.%d.%d.%d:%d" would, at the ends of each field's range.
func TestSandboxAddrMatchesDottedQuad(t *testing.T) {
	for _, tc := range []struct {
		ip   [4]byte
		port uint16
	}{{[4]byte{0, 0, 0, 0}, 0}, {[4]byte{10, 0, 0, 1}, 8080}, {[4]byte{255, 255, 255, 255}, 65535}} {
		b := &base{cfg: Config{NodeIP: tc.ip}}
		want := fmt.Sprintf("%d.%d.%d.%d:%d", tc.ip[0], tc.ip[1], tc.ip[2], tc.ip[3], tc.port)
		if got := b.addr(tc.port); got != want {
			t.Errorf("addr(%v, %d) = %q, want %q", tc.ip, tc.port, got, want)
		}
	}
}

func TestFirecrackerSnapshotFlow(t *testing.T) {
	rt := NewFirecracker(FirecrackerConfig{Config: fastConfig(), Snapshots: true})
	// First create boots the VM and snapshots; second restores.
	if _, err := rt.Create(context.Background(), spec(1, "img")); err != nil {
		t.Fatal(err)
	}
	if !rt.cfg.Images.HasKind("img", ArtifactSnapshot) {
		t.Errorf("snapshot not cached after first boot")
	}
	inst, err := rt.Create(context.Background(), spec(2, "img"))
	if err != nil {
		t.Fatal(err)
	}
	if inst.BootDelay < 0 {
		t.Errorf("negative boot delay")
	}
	if rt.Name() != "firecracker" {
		t.Errorf("Name = %q", rt.Name())
	}
}

func TestRuntimeCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := NewContainerd(fastConfig())
	if _, err := rt.Create(ctx, spec(1, "img")); err == nil {
		t.Errorf("create with cancelled context should fail")
	}
	fc := NewFirecracker(FirecrackerConfig{Config: fastConfig(), Snapshots: true})
	if _, err := fc.Create(ctx, spec(2, "img")); err == nil {
		t.Errorf("create with cancelled context should fail")
	}
}

func TestConcurrentCreates(t *testing.T) {
	rt := NewContainerd(fastConfig())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rt.Create(context.Background(), spec(core.SandboxID(i), "img")); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if rt.Count() != 64 {
		t.Errorf("Count = %d, want 64", rt.Count())
	}
}

func TestNetworkPoolFastAndSlowPath(t *testing.T) {
	p := NewNetworkPool(nil, 0, 2)
	ctx := context.Background()
	a, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Pool drained: third acquire takes the slow path.
	c, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow, _ := p.Stats()
	if fast != 2 || slow != 1 {
		t.Errorf("fast=%d slow=%d, want 2/1", fast, slow)
	}
	// Releases recycle up to the target size.
	p.Release(a)
	p.Release(b)
	p.Release(c) // beyond target: destroyed
	_, _, pooled := p.Stats()
	if pooled != 2 {
		t.Errorf("pooled = %d, want 2 (target)", pooled)
	}
	p.Release(nil) // must not panic
}

func TestNetworkPoolCancelledContext(t *testing.T) {
	p := NewNetworkPool(nil, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Acquire(ctx); err == nil {
		t.Errorf("acquire with cancelled context should fail")
	}
}

func TestImageCache(t *testing.T) {
	c := NewImageCache()
	if c.Has("img") {
		t.Errorf("empty cache should miss")
	}
	c.Put("img", ArtifactImage)
	if !c.Has("img") {
		t.Errorf("cache should hit after Put")
	}
	if c.HasKind("img", ArtifactSnapshot) {
		t.Errorf("snapshot should miss when only image cached")
	}
	c.Prefetch("a", "b")
	if !c.HasKind("a", ArtifactSnapshot) || !c.HasKind("b", ArtifactImage) {
		t.Errorf("prefetch incomplete")
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
	if c.String() == "" {
		t.Errorf("String should describe the cache")
	}
}

func TestImageCacheAvoidsSecondPull(t *testing.T) {
	rt := NewContainerd(fastConfig())
	if _, err := rt.Create(context.Background(), spec(1, "cached-img")); err != nil {
		t.Fatal(err)
	}
	if !rt.cfg.Images.Has("cached-img") {
		t.Errorf("image not cached after first create")
	}
}

func TestLatencyModelScales(t *testing.T) {
	// With scale 1 the median should be in the right ballpark; with
	// scale 0 there is no simulated delay at all.
	m := newLatencyModel(1, 1.0, 100*time.Millisecond, 0.25)
	var sum time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		sum += m.sample()
	}
	avg := sum / n
	if avg < 50*time.Millisecond || avg > 250*time.Millisecond {
		t.Errorf("avg sample %v implausible for median 100ms", avg)
	}
	z := newLatencyModel(1, 0, 100*time.Millisecond, 0.25)
	if z.sample() != 0 {
		t.Errorf("scale 0 should produce zero latency")
	}
}

func TestKernelSectionSerializesCreates(t *testing.T) {
	// With a real latency scale, the kernel section bounds per-node
	// creation throughput; validate the mutual exclusion exists by
	// timing two concurrent creations with a visible lock hold.
	cfg := fastConfig()
	cfg.LatencyScale = 1.0
	rt := NewContainerd(cfg)
	rt.lockHold = 30 * time.Millisecond
	rt.createLat = newLatencyModel(1, 0, 0, 0) // isolate the lock section
	rt.pullLat = newLatencyModel(2, 0, 0, 0)
	rt.bootLat = newLatencyModel(3, 0, 0, 0)
	rt.cfg.Network = NewNetworkPool(nil, 0, 8)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rt.Create(context.Background(), spec(core.SandboxID(i), "img")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("3 creations finished in %v; kernel lock not serializing (want >= 90ms)", elapsed)
	}
}

// TestCreateKillCyclesLeaveNoState checks that a runtime keeps nothing per
// sandbox once the sandbox is killed: after many create/kill cycles every
// map in base is empty (found by reflection, so a map added later is
// covered too) and every network config is back in the pool.
func TestCreateKillCyclesLeaveNoState(t *testing.T) {
	for _, rt := range []interface {
		Runtime
		state() *base
	}{
		NewContainerd(fastConfig()),
		NewFirecracker(FirecrackerConfig{Config: fastConfig(), Snapshots: true}),
	} {
		for i := 1; i <= 200; i++ {
			id := core.SandboxID(i)
			if _, err := rt.Create(context.Background(), spec(id, "img")); err != nil {
				t.Fatal(err)
			}
			if err := rt.Kill(id); err != nil {
				t.Fatal(err)
			}
		}
		b := rt.state()
		v := reflect.ValueOf(b).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Map && f.Len() != 0 {
				t.Errorf("%s: base.%s holds %d entries after every sandbox was killed",
					rt.Name(), v.Type().Field(i).Name, f.Len())
			}
		}
		if _, slow, pooled := b.cfg.Network.Stats(); slow != 0 || pooled != b.cfg.Network.target {
			t.Errorf("%s: %d network configs pooled of %d, %d slow-path creations",
				rt.Name(), pooled, b.cfg.Network.target, slow)
		}
	}
}

func (b *base) state() *base { return b }
