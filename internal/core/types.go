// Package core defines Dirigent's four cluster-management abstractions —
// Function, Sandbox, DataPlane, and WorkerNode (paper §3.2, Table 3) —
// together with the scheduling configuration and metric types shared by the
// control plane, data plane, and worker daemon.
//
// Keeping the abstraction set this small is Dirigent's first design
// principle: in contrast to the hierarchical K8s objects (Deployment →
// ReplicaSet → Pod → Endpoint), a sandbox creation in Dirigent touches a
// single Sandbox object.
package core

import (
	"fmt"
	"time"
)

// SandboxID identifies a sandbox uniquely within a cluster epoch.
type SandboxID uint64

// NodeID identifies a worker node.
type NodeID uint16

// DataPlaneID identifies a data plane replica.
type DataPlaneID uint16

// SandboxState is the lifecycle state of a sandbox on a worker node.
type SandboxState uint8

// Sandbox lifecycle states.
const (
	// SandboxCreating means the worker daemon is creating the sandbox.
	SandboxCreating SandboxState = iota
	// SandboxBooting means the sandbox process exists but has not yet
	// passed a health probe.
	SandboxBooting
	// SandboxReady means the sandbox passed its health probe and can
	// receive traffic.
	SandboxReady
	// SandboxDraining means the sandbox is excluded from load balancing
	// and finishes in-flight requests before teardown.
	SandboxDraining
	// SandboxDead means the sandbox has been torn down or its worker
	// failed.
	SandboxDead
)

// String implements fmt.Stringer.
func (s SandboxState) String() string {
	switch s {
	case SandboxCreating:
		return "creating"
	case SandboxBooting:
		return "booting"
	case SandboxReady:
		return "ready"
	case SandboxDraining:
		return "draining"
	case SandboxDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ScalingConfig holds the per-function scheduling knobs tracked by the
// control plane (autoscaling parameters, resource quotas). Defaults follow
// Knative's KPA autoscaler, which Dirigent reuses for a fair comparison
// (paper §4, "Scheduling policies").
type ScalingConfig struct {
	// TargetConcurrency is the desired number of in-flight requests per
	// sandbox. FaaS platforms default to 1 (paper §2.1, Figure 3).
	TargetConcurrency float64
	// MinScale and MaxScale bound the number of sandboxes. MaxScale <= 0
	// means unbounded.
	MinScale, MaxScale int
	// StableWindow is the averaging window of the stable autoscaling mode.
	StableWindow time.Duration
	// PanicWindow is the short averaging window of the panic mode.
	PanicWindow time.Duration
	// PanicThreshold is the ratio of observed to desired concurrency above
	// which the autoscaler enters panic mode (Knative default 2.0).
	PanicThreshold float64
	// ScaleToZeroGrace is how long a function must be idle before its last
	// sandbox is removed.
	ScaleToZeroGrace time.Duration
	// MaxScaleUpRate caps the multiplicative growth of desired scale per
	// decision (Knative default 1000).
	MaxScaleUpRate float64
	// CPUMilli and MemoryMB are the per-sandbox resource requests used by
	// the placement policy.
	CPUMilli int
	MemoryMB int
}

// DefaultScalingConfig returns the Knative-default scaling configuration.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		TargetConcurrency: 1,
		MinScale:          0,
		MaxScale:          0,
		StableWindow:      60 * time.Second,
		PanicWindow:       6 * time.Second,
		PanicThreshold:    2.0,
		ScaleToZeroGrace:  30 * time.Second,
		MaxScaleUpRate:    1000,
		CPUMilli:          100,
		MemoryMB:          128,
	}
}

// Function is the registration record for a user function: the recipe from
// which the control plane creates sandboxes (paper Table 3). Name, image,
// port, and scheduling configuration are persisted; scheduling metrics are
// kept in memory only.
type Function struct {
	// Name is the unique user-visible function identifier.
	Name string
	// Image is the container image or snapshot URL.
	Image string
	// Port is the port the function's server listens on inside the sandbox.
	Port uint16
	// Runtime selects the sandbox runtime ("containerd", "firecracker").
	Runtime string
	// Scaling holds the autoscaling and placement knobs.
	Scaling ScalingConfig
}

// Validate reports whether the registration record is well formed.
func (f *Function) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("function: empty name")
	}
	if f.Image == "" {
		return fmt.Errorf("function %q: empty image", f.Name)
	}
	if f.Port == 0 {
		return fmt.Errorf("function %q: port must be nonzero", f.Name)
	}
	return nil
}

// Sandbox is the in-memory record of one sandbox on a worker node
// (paper Table 3: name, IP address, port, worker node ID). None of this
// state is persisted: after a control-plane failure it is reconstructed
// from worker-node reports.
type Sandbox struct {
	ID       SandboxID
	Function string
	Node     NodeID
	IP       [4]byte
	Port     uint16
	State    SandboxState
	// CreatedAt is when the control plane requested creation; used for
	// cold-start latency accounting.
	CreatedAt time.Time
	// ReadyAt is when the sandbox passed its health probe.
	ReadyAt time.Time
}

// Addr renders the sandbox's IP:port endpoint.
func (s *Sandbox) Addr() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", s.IP[0], s.IP[1], s.IP[2], s.IP[3], s.Port)
}

// Endpoint is the minimal routing record broadcast from the control plane
// to data planes when sandboxes come and go.
type Endpoint struct {
	SandboxID SandboxID
	Function  string
	Node      NodeID
	Addr      string
}

// WorkerNode describes a worker's identity, connectivity, and capacity
// (paper Table 3: name, IP, port — all persisted).
type WorkerNode struct {
	ID       NodeID
	Name     string
	IP       string
	Port     uint16
	CPUMilli int
	MemoryMB int
}

// DataPlane describes a data plane replica (paper Table 3: IP and port,
// persisted).
type DataPlane struct {
	ID   DataPlaneID
	IP   string
	Port uint16
}

// ScalingMetric is the per-function signal a data plane periodically sends
// to the control plane: the number of in-flight (executing + queued)
// requests observed for a function (paper Table 2, "Send scaling metric").
type ScalingMetric struct {
	Function string
	// InFlight is the instantaneous in-flight request count.
	InFlight int
	// QueueDepth is the number of requests waiting for a sandbox.
	QueueDepth int
	// At is the data plane's observation timestamp.
	At time.Time
}

// NodeUtilization is the resource usage a worker reports in heartbeats,
// consumed by the placement policy.
type NodeUtilization struct {
	Node          NodeID
	CPUMilliUsed  int
	MemoryMBUsed  int
	SandboxCount  int
	CreationQueue int
	// CacheDigest lists HashImage values for the images/snapshots in the
	// node's local cache, sorted ascending so placement can binary-search
	// it. It rides worker heartbeats to feed cache-locality-aware
	// placement. Treated as read-only once published: heartbeat handlers
	// copy the struct by value and share the slice.
	CacheDigest []uint64
}
