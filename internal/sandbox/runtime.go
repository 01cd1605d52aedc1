// Package sandbox provides the worker-node sandbox runtimes. Dirigent
// integrates runtimes through a three-call interface (paper §4: "Integrating
// additional sandbox runtimes only involves extending a three-call
// interface"): Create, Kill, and List.
//
// The physical runtimes the paper uses — containerd containers and
// Firecracker microVMs restored from snapshots — are not available in this
// environment, so this package implements simulated runtimes with
// calibrated latency and contention models:
//
//   - containerd: container create + network attach, serialized through a
//     per-node kernel lock that caps node creation throughput (the paper
//     identifies kernel lock contention on network interface creation and
//     iptables updates as the bottleneck that saturates Dirigent-containerd
//     at ~1750 cold starts/s across 93 nodes, ~19/s/node).
//   - firecracker: microVM snapshot restore with ~40 ms p50 (the figure the
//     paper itself uses for its worker-emulation scalability study, §5.2.3)
//     and a much lighter kernel section.
//
// Both runtimes draw from a pre-created recyclable network-configuration
// pool with pre-configured iptables rules (paper §4) and consult local
// image / snapshot caches. Null is the third runtime, with no model at
// all, for emulated fleets.
package sandbox

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
)

// Spec describes the sandbox to create.
type Spec struct {
	ID       core.SandboxID
	Function core.Function
}

// Instance is a created sandbox.
type Instance struct {
	ID        core.SandboxID
	Function  string
	Image     string
	Addr      string
	NetCfg    *NetConfig
	CreatedAt time.Time
	// BootDelay is how long after creation the sandbox needs before it
	// passes a health probe (e.g. user server startup).
	BootDelay time.Duration
}

// Runtime is Dirigent's three-call sandbox runtime interface.
type Runtime interface {
	// Create spins up a sandbox and returns it once the sandbox process
	// exists (health probing is the worker daemon's job).
	Create(ctx context.Context, spec Spec) (*Instance, error)
	// Kill tears down the sandbox: filesystem, network interfaces, and
	// cgroup structures (paper §4, "Sandbox teardown").
	Kill(id core.SandboxID) error
	// List returns all live sandboxes, used to rebuild control-plane
	// state after a failover (paper §3.4.1).
	List() []*Instance
	// Name identifies the runtime ("containerd", "firecracker").
	Name() string
}

// ImagePreparer is an optional runtime capability used by the worker's
// per-image pre-warm pool: specialize a generic pre-warmed sandbox for a
// concrete image, paying the pull/snapshot cost only on a node-local
// cache miss. Runtimes that do not implement it simply hand over the
// generic sandbox (the seed's behavior).
type ImagePreparer interface {
	// PrepareImage ensures image is usable on this node, blocking for the
	// pull/boot cost if it is not cached yet.
	PrepareImage(image string)
}

// Config carries the shared knobs of the simulated runtimes.
type Config struct {
	// Clock is used for all sleeps; tests substitute a virtual clock.
	Clock clock.Clock
	// LatencyScale multiplies every simulated latency. 1.0 reproduces
	// calibrated real-world latencies; tests use small values or 0.
	LatencyScale float64
	// NodeIP is the worker's IP used to mint sandbox addresses.
	NodeIP [4]byte
	// Network is the shared per-node network configuration pool; nil
	// creates a default pool.
	Network *NetworkPool
	// Images is the node-local image/snapshot cache; nil creates an
	// empty cache (first creation of each image pays the pull).
	Images *ImageCache
	// Seed seeds the latency distributions for reproducibility.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	if c.LatencyScale < 0 {
		c.LatencyScale = 0
	}
	if c.Network == nil {
		c.Network = NewNetworkPool(c.Clock, c.LatencyScale, 64)
	}
	if c.Images == nil {
		c.Images = NewImageCache()
	}
	return c
}

// latencyModel draws creation latencies from a lognormal distribution
// around a median with the given sigma, scaled by LatencyScale.
type latencyModel struct {
	mu     sync.Mutex
	rng    *rand.Rand
	scale  float64
	median time.Duration
	sigma  float64
}

func newLatencyModel(seed int64, scale float64, median time.Duration, sigma float64) *latencyModel {
	return &latencyModel{
		rng:    rand.New(rand.NewSource(seed)),
		scale:  scale,
		median: median,
		sigma:  sigma,
	}
}

// sample draws one latency.
func (m *latencyModel) sample() time.Duration {
	m.mu.Lock()
	z := m.rng.NormFloat64()
	m.mu.Unlock()
	d := float64(m.median) * math.Exp(m.sigma*z) * m.scale
	return time.Duration(d)
}

// scaled scales a fixed duration by the configured latency scale.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// base holds the state shared by the simulated runtimes.
type base struct {
	cfg      Config
	name     string
	kernelMu sync.Mutex // models the node-wide kernel lock section
	lockHold time.Duration

	mu        sync.Mutex
	instances map[core.SandboxID]*Instance
	nextPort  uint16
}

func newBase(cfg Config, name string, lockHold time.Duration) *base {
	return &base{
		cfg:       cfg,
		name:      name,
		lockHold:  lockHold,
		instances: make(map[core.SandboxID]*Instance),
		nextPort:  30000,
	}
}

// Name implements Runtime.
func (b *base) Name() string { return b.name }

// List implements Runtime.
func (b *base) List() []*Instance {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Instance, 0, len(b.instances))
	for _, inst := range b.instances {
		out = append(out, inst)
	}
	return out
}

// Kill implements Runtime.
func (b *base) Kill(id core.SandboxID) error {
	b.mu.Lock()
	inst, ok := b.instances[id]
	if ok {
		delete(b.instances, id)
	}
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%s: kill: unknown sandbox %d", b.name, id)
	}
	// Teardown dismantles filesystem, network interfaces, and cgroups;
	// the network config is recycled into the pool (paper §4).
	b.cfg.Clock.Sleep(scaled(8*time.Millisecond, b.cfg.LatencyScale))
	if inst.NetCfg != nil {
		b.cfg.Network.Release(inst.NetCfg)
	}
	return nil
}

// Count returns the number of live sandboxes.
func (b *base) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.instances)
}

func (b *base) allocPort() uint16 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextPort++
	if b.nextPort == 0 { // wrapped; stay in the ephemeral range
		b.nextPort = 30001
	}
	return b.nextPort
}

// kernelSection serializes the part of sandbox creation that contends on
// kernel locks (network interface setup, iptables updates). Holding a
// node-wide mutex for lockHold models the serialization that caps per-node
// creation throughput.
func (b *base) kernelSection() {
	hold := scaled(b.lockHold, b.cfg.LatencyScale)
	b.kernelMu.Lock()
	if hold > 0 {
		b.cfg.Clock.Sleep(hold)
	}
	b.kernelMu.Unlock()
}

func (b *base) register(inst *Instance) {
	b.mu.Lock()
	b.instances[inst.ID] = inst
	b.mu.Unlock()
}

// addr formats the sandbox address NodeIP:port with strconv, not fmt: it
// runs on every create, on the worker goroutine started for it, where
// fmt's deep call chain grew a fresh stack per create.
func (b *base) addr(port uint16) string {
	ip := b.cfg.NodeIP
	buf := make([]byte, 0, len("255.255.255.255:65535"))
	for i, octet := range ip {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendUint(buf, uint64(octet), 10)
	}
	buf = append(buf, ':')
	buf = strconv.AppendUint(buf, uint64(port), 10)
	return string(buf)
}

// Containerd is the simulated containerd runtime. Creation pulls the image
// on a cache miss, creates the container, and attaches networking through
// the kernel section. Calibrated latencies: ~120 ms container create
// (median), ~500 ms image pull on miss, 45 ms kernel-lock hold.
type Containerd struct {
	*base
	createLat *latencyModel
	pullLat   *latencyModel
	bootLat   *latencyModel
}

// NewContainerd returns a simulated containerd runtime.
func NewContainerd(cfg Config) *Containerd {
	cfg = cfg.withDefaults()
	return &Containerd{
		base:      newBase(cfg, "containerd", 45*time.Millisecond),
		createLat: newLatencyModel(cfg.Seed+1, cfg.LatencyScale, 120*time.Millisecond, 0.25),
		pullLat:   newLatencyModel(cfg.Seed+2, cfg.LatencyScale, 1500*time.Millisecond, 0.30),
		bootLat:   newLatencyModel(cfg.Seed+3, cfg.LatencyScale, 60*time.Millisecond, 0.30),
	}
}

// Create implements Runtime.
func (c *Containerd) Create(ctx context.Context, spec Spec) (*Instance, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !c.cfg.Images.Has(spec.Function.Image) {
		c.cfg.Clock.Sleep(c.pullLat.sample())
		c.cfg.Images.Put(spec.Function.Image, ArtifactImage)
	}
	c.cfg.Clock.Sleep(c.createLat.sample())
	netCfg, err := c.cfg.Network.Acquire(ctx)
	if err != nil {
		return nil, fmt.Errorf("containerd: create sandbox %d: %w", spec.ID, err)
	}
	c.kernelSection()
	inst := &Instance{
		ID:        spec.ID,
		Function:  spec.Function.Name,
		Image:     spec.Function.Image,
		Addr:      c.addr(c.allocPort()),
		NetCfg:    netCfg,
		CreatedAt: c.cfg.Clock.Now(),
		BootDelay: c.bootLat.sample(),
	}
	c.register(inst)
	return inst, nil
}

// PrepareImage implements ImagePreparer: pull the image on a cache miss.
// Claiming a generic pre-warmed container for a function whose image is
// not on the node costs the pull; image-matched pool entries (and nodes
// chosen by cache-aware placement) skip it.
func (c *Containerd) PrepareImage(image string) {
	if !c.cfg.Images.Has(image) {
		c.cfg.Clock.Sleep(c.pullLat.sample())
		c.cfg.Images.Put(image, ArtifactImage)
	}
}

// Firecracker is the simulated Firecracker microVM runtime. With snapshots
// enabled, creation restores a pre-booted microVM image (~40 ms p50); the
// kernel section is short because TAP devices and iptables rules come from
// the pre-created pool. Without snapshots, a full microVM boot is modeled.
type Firecracker struct {
	*base
	snapshots  bool
	restoreLat *latencyModel
	bootVMLat  *latencyModel
	readyLat   *latencyModel
}

// FirecrackerConfig extends Config with the snapshot toggle.
type FirecrackerConfig struct {
	Config
	// Snapshots enables microVM snapshot restore (the configuration that
	// reaches 2500 cold starts/s in the paper).
	Snapshots bool
}

// NewFirecracker returns a simulated Firecracker runtime.
func NewFirecracker(cfg FirecrackerConfig) *Firecracker {
	c := cfg.Config.withDefaults()
	return &Firecracker{
		base:       newBase(c, "firecracker", 4*time.Millisecond),
		snapshots:  cfg.Snapshots,
		restoreLat: newLatencyModel(c.Seed+11, c.LatencyScale, 40*time.Millisecond, 0.20),
		bootVMLat:  newLatencyModel(c.Seed+12, c.LatencyScale, 700*time.Millisecond, 0.25),
		readyLat:   newLatencyModel(c.Seed+13, c.LatencyScale, 10*time.Millisecond, 0.30),
	}
}

// PrepareImage implements ImagePreparer: with snapshots enabled, a cache
// miss boots the VM image and captures a snapshot; a hit loads the cached
// snapshot state into the generic microVM at restore cost.
func (f *Firecracker) PrepareImage(image string) {
	if !f.snapshots {
		return
	}
	if !f.cfg.Images.HasKind(image, ArtifactSnapshot) {
		f.cfg.Clock.Sleep(f.bootVMLat.sample())
		f.cfg.Images.Put(image, ArtifactSnapshot)
	} else {
		f.cfg.Clock.Sleep(f.restoreLat.sample())
	}
}

// Create implements Runtime.
func (f *Firecracker) Create(ctx context.Context, spec Spec) (*Instance, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.snapshots {
		if !f.cfg.Images.HasKind(spec.Function.Image, ArtifactSnapshot) {
			// First creation boots the VM and captures a snapshot.
			f.cfg.Clock.Sleep(f.bootVMLat.sample())
			f.cfg.Images.Put(spec.Function.Image, ArtifactSnapshot)
		} else {
			f.cfg.Clock.Sleep(f.restoreLat.sample())
		}
	} else {
		f.cfg.Clock.Sleep(f.bootVMLat.sample())
	}
	netCfg, err := f.cfg.Network.Acquire(ctx)
	if err != nil {
		return nil, fmt.Errorf("firecracker: create sandbox %d: %w", spec.ID, err)
	}
	f.kernelSection()
	boot := f.readyLat.sample()
	if !f.snapshots {
		boot += f.readyLat.sample() // guest user-space startup
	}
	inst := &Instance{
		ID:        spec.ID,
		Function:  spec.Function.Name,
		Image:     spec.Function.Image,
		Addr:      f.addr(f.allocPort()),
		NetCfg:    netCfg,
		CreatedAt: f.cfg.Clock.Now(),
		BootDelay: boot,
	}
	f.register(inst)
	return inst, nil
}

// Null is the runtime of emulated fleets: creating a sandbox is a map
// insert, with no latency model and no network pool, so thousands of
// workers fit in one process. Readiness trails creation by ReadyDelay
// (the worker's boot wait), and every image created is recorded in Images
// so heartbeat digests still drive cache-aware placement.
type Null struct {
	ReadyDelay time.Duration
	Images     *ImageCache

	mu        sync.Mutex
	instances map[core.SandboxID]*Instance
}

// Name implements Runtime.
func (n *Null) Name() string { return "null" }

// Create implements Runtime.
func (n *Null) Create(_ context.Context, spec Spec) (*Instance, error) {
	if n.Images != nil {
		n.Images.Put(spec.Function.Image, ArtifactImage)
	}
	inst := &Instance{ID: spec.ID, Function: spec.Function.Name, Image: spec.Function.Image, BootDelay: n.ReadyDelay}
	n.mu.Lock()
	if n.instances == nil {
		n.instances = make(map[core.SandboxID]*Instance)
	}
	n.instances[spec.ID] = inst
	n.mu.Unlock()
	return inst, nil
}

// Kill implements Runtime.
func (n *Null) Kill(id core.SandboxID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.instances[id]; !ok {
		return fmt.Errorf("null: kill: unknown sandbox %d", id)
	}
	delete(n.instances, id)
	return nil
}

// List implements Runtime.
func (n *Null) List() []*Instance {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Instance, 0, len(n.instances))
	for _, inst := range n.instances {
		out = append(out, inst)
	}
	return out
}
