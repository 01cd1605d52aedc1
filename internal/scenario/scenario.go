// Package scenario is the macro-benchmark driver: it replays a
// compressed Azure-like trace (internal/trace) against a live cluster —
// one control plane, N real data plane replicas sharing a durable async
// store, and a fleet of emulated workers — with a configurable load mix
// (sync invokes, durable async submissions, multi-function workflows
// through internal/workflow) and a declarative fault schedule (kill or
// revive a worker rack, a data plane replica or a control plane replica;
// flip a versioned rollout) at trace-relative times. The driver
// buckets results into named phases and reports per-phase p50/p99
// latency, cold-start rate, RPS, and workflow success, plus global
// lost/stranded counts — the paper's §5.3 methodology (sustained trace,
// whole system) pointed at the failure injections of §5.4.
//
// The same trace-time compression as `experiments warmth` applies: one
// trace minute replays in one wall second by default, and every
// liveness window (autoscaler, heartbeats, health sweeps, membership)
// is compressed by the same spirit so the trace's temporal structure
// survives.
package scenario

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/dataplane"
	"dirigent/internal/fleet"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
	"dirigent/internal/trace"
	"dirigent/internal/transport"
	"dirigent/internal/versioning"
	"dirigent/internal/worker"
	"dirigent/internal/workflow"
)

// FaultKind names a fault target tier.
type FaultKind string

// Fault targets.
const (
	// FaultWorkerRack kills (or revives) a fraction of the worker fleet
	// at once — a correlated rack/AZ failure.
	FaultWorkerRack FaultKind = "worker-rack"
	// FaultDataPlane kills (or revives) one data plane replica.
	FaultDataPlane FaultKind = "dataplane"
	// FaultControlPlane kills the current control plane leader ("cp-kill":
	// a follower wins the next election and recovers from its applied
	// log) or revives the last killed replica ("cp-revive": it rejoins as
	// a follower and catches up from the leader's log). Requires
	// Config.ControlPlanes > 1.
	FaultControlPlane FaultKind = "controlplane"
)

// Event is one entry of the declarative schedule, fired at a
// trace-relative time during the replay. Zero-valued fields are ignored,
// so one event can be a pure phase marker, a fault, a rollout flip, or
// any combination.
type Event struct {
	// At is the trace-relative fire time (wall time = At × TimeScale).
	At time.Duration
	// Phase, when non-empty, starts a new measurement phase: samples
	// with trace time >= At are bucketed under this name until the next
	// marker.
	Phase string
	// Kind and Action describe a fault ("kill" or "revive"); empty Kind
	// means no fault.
	Kind   FaultKind
	Action string
	// Frac is the worker-rack kill fraction (FaultWorkerRack only).
	Frac float64
	// Index selects the data plane replica (FaultDataPlane).
	Index int
	// Rollout, when non-empty, installs this traffic split for
	// Config.RolloutFunction on the front end's version router.
	Rollout []versioning.Version
	// Promote, when non-empty, promotes this version to 100% of
	// Config.RolloutFunction's traffic.
	Promote string
}

// Config parameterizes one scenario run.
type Config struct {
	// Trace is the workload to replay (required).
	Trace *trace.Trace
	// TimeScale compresses trace time onto the wall clock
	// (default 1/30: one trace minute per wall second).
	TimeScale float64
	// Warmup is the trace-relative cutoff before which samples land in
	// the "warmup" phase (default Trace.Duration/3, the paper's discard
	// window). Measurement phases start at Warmup with phase "steady".
	Warmup time.Duration
	// ControlPlanes is the CP replica count (default 1, the seed's single
	// CP). With > 1 the tier runs Raft log replication — every durable
	// write commits at quorum and each replica applies it to its own
	// store — and the fault schedule may kill and revive CP replicas.
	ControlPlanes int
	// CPFollowerReads lets CP follower replicas serve read-only RPCs
	// (front-end membership polls) from their applied store.
	CPFollowerReads bool
	// DataPlanes is the replica count (default 3).
	DataPlanes int
	// Workers is the emulated fleet size (default 24).
	Workers int
	// AsyncEveryN submits every Nth trace invocation as a durable async
	// request instead of a sync invoke (0 disables async traffic).
	AsyncEveryN int
	// WorkflowEveryN turns every Nth trace invocation into a workflow
	// execution — alternating a 3-step chain and a fan-out/fan-in
	// diamond over dedicated wf-* functions (0 disables workflows).
	WorkflowEveryN int
	// RolloutFunction is the logical function whose traffic the Rollout/
	// Promote events shift (default: the trace's hottest function). The
	// driver registers "<name>@v2" as its second version.
	RolloutFunction string
	// Schedule is the declarative fault/phase/rollout timeline.
	Schedule []Event
	// ExecCap bounds each emulated execution sleep (default 80ms) so a
	// trace tail can't outlive the compressed replay.
	ExecCap time.Duration
	// MaxInFlight bounds concurrently outstanding invocations
	// (default 512).
	MaxInFlight int
	// QueueTimeout bounds data plane cold-start queueing (default 30s —
	// far above the compressed failure-detection windows, so invokes
	// caught by a kill wait out the re-placement instead of failing).
	QueueTimeout time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Trace == nil || len(c.Trace.Invocations) == 0 {
		return c, fmt.Errorf("scenario: empty trace")
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1.0 / 30.0
	}
	if c.Warmup == 0 {
		c.Warmup = c.Trace.Duration / 3
	}
	if c.DataPlanes <= 0 {
		c.DataPlanes = 3
	}
	if c.Workers <= 0 {
		c.Workers = 24
	}
	if c.ExecCap <= 0 {
		c.ExecCap = 80 * time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 512
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 30 * time.Second
	}
	if c.RolloutFunction == "" {
		c.RolloutFunction = HottestFunction(c.Trace)
	}
	if c.ControlPlanes <= 0 {
		c.ControlPlanes = 1
	}
	for _, ev := range c.Schedule {
		if ev.Kind == FaultDataPlane && ev.Index >= c.DataPlanes {
			return c, fmt.Errorf("scenario: dataplane fault index %d out of range", ev.Index)
		}
		if ev.Kind == FaultControlPlane && c.ControlPlanes <= 1 {
			return c, fmt.Errorf("scenario: control plane fault scheduled with ControlPlanes=1")
		}
	}
	return c, nil
}

// HottestFunction returns the trace function with the highest average
// rate — the default rollout target (callers building a schedule need
// the name to phrase the version split).
func HottestFunction(tr *trace.Trace) string {
	best := tr.Functions[0]
	for _, f := range tr.Functions[1:] {
		if f.RatePerMinute > best.RatePerMinute {
			best = f
		}
	}
	return best.Name
}

// PhaseStats is one measurement phase's aggregate.
type PhaseStats struct {
	Phase string `json:"phase"`
	// FromMin/ToMin bound the phase in trace minutes.
	FromMin float64 `json:"from_min"`
	ToMin   float64 `json:"to_min"`
	// Sync invoke outcomes.
	Invocations int     `json:"invocations"`
	Failed      int     `json:"failed"`
	ColdStarts  int     `json:"cold_starts"`
	ColdRate    float64 `json:"cold_rate"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	// RPS is sync invocations per wall second of the phase.
	RPS float64 `json:"rps"`
	// Async submissions and workflow executions landing in the phase.
	Async       int `json:"async"`
	Workflows   int `json:"workflows"`
	WorkflowOK  int `json:"workflow_ok"`
	VersionedV2 int `json:"versioned_v2"`
}

// Report is the scenario outcome.
type Report struct {
	TraceFunctions   int     `json:"trace_functions"`
	TraceInvocations int     `json:"trace_invocations"`
	TraceMinutes     float64 `json:"trace_minutes"`
	WallSeconds      float64 `json:"wall_seconds"`

	Phases []PhaseStats `json:"phases"`

	// LostSync counts sync invocations (workflow steps excluded) that
	// returned an error anywhere in the replay — the zero-loss claim.
	LostSync int `json:"lost_sync"`
	// Async accounting: accepted acknowledgments, accept errors, records
	// still unsettled in the shared store after the post-replay drain
	// (the stranded set — zero with lease failover), and drain time.
	AsyncAccepted     int     `json:"async_accepted"`
	AsyncAcceptFailed int     `json:"async_accept_failed"`
	AsyncStranded     int     `json:"async_stranded"`
	AsyncDrainMs      float64 `json:"async_drain_ms"`

	Workflows           int     `json:"workflows"`
	WorkflowOK          int     `json:"workflow_ok"`
	WorkflowSuccessRate float64 `json:"workflow_success_rate"`

	// VersionServed counts, for the rollout function only, which
	// concrete version's handler served each successful invocation;
	// UnversionedServes counts bodies tagged with neither version
	// (must stay zero: every invocation resolves to exactly one version).
	VersionServed     map[string]int `json:"version_served"`
	UnversionedServes int            `json:"unversioned_serves"`

	FaultsInjected []string `json:"faults_injected"`

	// Control plane sweep visibility of the injected faults.
	WorkerFailuresDetected int64 `json:"worker_failures_detected"`
	DPFailuresDetected     int64 `json:"dataplane_failures_detected"`
	DPRevivals             int64 `json:"dataplane_revivals"`
	LBFailovers            int64 `json:"lb_failovers"`
	// CPRecoveries counts control plane leadership recoveries (1 for the
	// initial election; each cp-kill adds one more as a follower takes
	// over and replays its applied log).
	CPRecoveries int64 `json:"cp_recoveries"`
}

// sample is one replayed invocation's outcome, bucketed by trace time.
type sample struct {
	at     time.Duration
	kind   uint8 // 0 sync, 1 async, 2 workflow
	failed bool
	cold   bool
	latMs  float64
	v2     bool // rollout function served by @v2
}

const (
	kindSync = iota
	kindAsync
	kindWorkflow
)

// execMagic prefixes encoded exec payloads so chained workflow bodies
// (which start with a function-name tag) decode to a zero sleep instead
// of garbage.
var execMagic = [4]byte{'e', 'x', 'e', 'c'}

// EncodeExec builds an invocation payload requesting an emulated
// execution sleep of d.
func EncodeExec(d time.Duration) []byte {
	b := make([]byte, 12)
	copy(b, execMagic[:])
	binary.LittleEndian.PutUint64(b[4:], uint64(d))
	return b
}

// DecodeExec recovers the requested sleep (0 for foreign payloads).
func DecodeExec(b []byte) time.Duration {
	if len(b) < 12 || [4]byte(b[:4]) != execMagic {
		return 0
	}
	return time.Duration(binary.LittleEndian.Uint64(b[4:12]))
}

// versionTag splits a worker body "function\x00payload" produced by the
// driver's HandlerFn into the serving function name.
func versionTag(body []byte) string {
	for i, c := range body {
		if c == 0 {
			return string(body[:i])
		}
	}
	return ""
}

const cpAddr = "e2e-cp"

// cpTier is the scenario's control plane tier: one seed-exact replica by
// default, or a Raft-replicated group the fault schedule can decapitate
// and heal.
type cpTier struct {
	tr            *transport.InProc
	metrics       *telemetry.Registry
	addrs         []string
	stores        []*store.Store
	cps           []*controlplane.ControlPlane
	followerReads bool
	lastKilled    int
}

func newCPTier(tr *transport.InProc, cfg Config) (*cpTier, error) {
	t := &cpTier{tr: tr, metrics: telemetry.NewRegistry(), followerReads: cfg.CPFollowerReads, lastKilled: -1}
	if cfg.ControlPlanes <= 1 {
		t.addrs = []string{cpAddr}
	} else {
		for i := 0; i < cfg.ControlPlanes; i++ {
			t.addrs = append(t.addrs, fmt.Sprintf("%s%d", cpAddr, i))
		}
	}
	for i := range t.addrs {
		t.stores = append(t.stores, store.NewMemory())
		t.cps = append(t.cps, t.newCP(i, false))
	}
	for _, cp := range t.cps {
		if err := cp.Start(); err != nil {
			t.stop()
			return nil, err
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for t.leader() == nil {
		if time.Now().After(deadline) {
			t.stop()
			return nil, fmt.Errorf("scenario: no control plane leader elected")
		}
		time.Sleep(time.Millisecond)
	}
	return t, nil
}

func (t *cpTier) newCP(i int, rejoin bool) *controlplane.ControlPlane {
	return controlplane.New(controlplane.Config{
		Addr:              t.addrs[i],
		Peers:             t.addrs,
		Transport:         t.tr,
		DB:                t.stores[i],
		AutoscaleInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		DataPlaneTimeout:  400 * time.Millisecond,
		NoDownscaleWindow: time.Millisecond,
		Metrics:           t.metrics,
		FollowerReads:     t.followerReads,
		RaftRejoin:        rejoin,
	})
}

func (t *cpTier) leader() *controlplane.ControlPlane {
	for _, cp := range t.cps {
		if cp.IsLeader() {
			return cp
		}
	}
	return nil
}

// killLeader crashes the current leader, returning its index (-1 if no
// replica currently leads).
func (t *cpTier) killLeader() int {
	for i, cp := range t.cps {
		if cp.IsLeader() {
			cp.Stop()
			t.lastKilled = i
			return i
		}
	}
	return -1
}

// revive restarts the last killed replica with a fresh store; it rejoins
// as a follower and the leader's log replay catches it up.
func (t *cpTier) revive() error {
	i := t.lastKilled
	if i < 0 {
		return fmt.Errorf("no killed control plane to revive")
	}
	t.stores[i] = store.NewMemory()
	cp := t.newCP(i, true)
	if err := cp.Start(); err != nil {
		return err
	}
	t.cps[i] = cp
	t.lastKilled = -1
	return nil
}

func (t *cpTier) stop() {
	for _, cp := range t.cps {
		cp.Stop()
	}
	for _, s := range t.stores {
		s.Close()
	}
}

// Run replays the configured scenario and returns its report. The error
// return covers harness failures (a component refusing to start, a
// registration failing); lost or stranded work is reported, not errored,
// so callers can assert on it.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tr := transport.NewInProc()
	shared := store.NewMemory()
	defer shared.Close()

	cpT, err := newCPTier(tr, cfg)
	if err != nil {
		return nil, err
	}
	defer cpT.stop()

	dpMetrics := telemetry.NewRegistry()
	dps := fleet.NewDataPlanes(fleet.DataPlanesConfig{
		Count:             cfg.DataPlanes,
		Transport:         tr,
		ControlPlanes:     cpT.addrs,
		SharedStore:       shared,
		HeartbeatInterval: 50 * time.Millisecond,
		MetricInterval:    5 * time.Millisecond,
		QueueTimeout:      cfg.QueueTimeout,
		Metrics:           dpMetrics,
	})
	if err := dps.Start(); err != nil {
		return nil, err
	}
	defer dps.Stop()

	execCap := cfg.ExecCap
	fl := fleet.New(fleet.Config{
		Size:              cfg.Workers,
		Transport:         tr,
		ControlPlanes:     cpT.addrs,
		HeartbeatInterval: 50 * time.Millisecond,
		ReadyDelay:        5 * time.Millisecond,
		HandlerFn: func(function string, payload []byte) ([]byte, error) {
			if d := DecodeExec(payload); d > 0 {
				if d > execCap {
					d = execCap
				}
				time.Sleep(d)
			}
			out := make([]byte, 0, len(function)+1+len(payload))
			out = append(out, function...)
			out = append(out, 0)
			out = append(out, payload...)
			return out, nil
		},
	})
	if err := fl.Start(); err != nil {
		return nil, err
	}
	defer fl.Stop()

	router := versioning.NewRouter()
	lb := frontend.New(frontend.Config{
		Transport:          tr,
		DataPlanes:         dps.Addrs(),
		ControlPlanes:      cpT.addrs,
		MembershipInterval: 50 * time.Millisecond,
		FailureCooldown:    150 * time.Millisecond,
		RequestTimeout:     60 * time.Second,
		Versions:           router,
	})
	if err := lb.Start(); err != nil {
		return nil, err
	}
	defer lb.Stop()

	if err := registerFunctions(tr, cpT, cfg); err != nil {
		return nil, err
	}
	if lead := cpT.leader(); lead != nil {
		lead.Reconcile()
	}
	if err := awaitPinnedScale(cpT, cfg); err != nil {
		return nil, err
	}

	rep := &Report{
		TraceFunctions:   len(cfg.Trace.Functions),
		TraceInvocations: len(cfg.Trace.Invocations),
		TraceMinutes:     cfg.Trace.Duration.Minutes(),
		VersionServed:    make(map[string]int),
	}

	// --- Replay ---
	var (
		mu        sync.Mutex
		samples   []sample
		wg        sync.WaitGroup
		wfCounter int
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	invoker := lbInvoker{lb: lb}
	orch := workflow.NewOrchestrator(invoker)
	sem := make(chan struct{}, cfg.MaxInFlight)
	start := time.Now()

	stopFaults := make(chan struct{})
	faultsDone := make(chan struct{})
	go runSchedule(cfg, start, cpT, fl, dps, router, rep, &mu, stopFaults, faultsDone)

	v2name := cfg.RolloutFunction + "@v2"
	for i, inv := range cfg.Trace.Invocations {
		at := time.Duration(float64(inv.At) * cfg.TimeScale)
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		isWF := cfg.WorkflowEveryN > 0 && i%cfg.WorkflowEveryN == 0
		isAsync := !isWF && cfg.AsyncEveryN > 0 && i%cfg.AsyncEveryN == 0
		payload := EncodeExec(time.Duration(float64(inv.Exec) * cfg.TimeScale))
		wg.Add(1)
		sem <- struct{}{}
		switch {
		case isWF:
			wfCounter++
			wf := chainWorkflow
			if wfCounter%2 == 0 {
				wf = fanWorkflow
			}
			go func(traceAt time.Duration, wf *workflow.Workflow) {
				defer wg.Done()
				defer func() { <-sem }()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				t0 := time.Now()
				_, err := orch.Execute(ctx, wf, EncodeExec(2*time.Millisecond))
				record(sample{at: traceAt, kind: kindWorkflow, failed: err != nil,
					latMs: float64(time.Since(t0)) / float64(time.Millisecond)})
			}(inv.At, wf)
		case isAsync:
			go func(traceAt time.Duration, name string, payload []byte) {
				defer wg.Done()
				defer func() { <-sem }()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				_, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: name, Async: true, Payload: payload})
				record(sample{at: traceAt, kind: kindAsync, failed: err != nil})
			}(inv.At, inv.Function.Name, payload)
		default:
			go func(traceAt time.Duration, name string, payload []byte) {
				defer wg.Done()
				defer func() { <-sem }()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				t0 := time.Now()
				resp, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: name, Payload: payload})
				s := sample{at: traceAt, kind: kindSync, failed: err != nil}
				if err == nil {
					s.cold = resp.ColdStart
					s.latMs = float64(time.Since(t0)) / float64(time.Millisecond)
					if name == cfg.RolloutFunction {
						switch versionTag(resp.Body) {
						case v2name:
							s.v2 = true
							mu.Lock()
							rep.VersionServed[v2name]++
							mu.Unlock()
						case cfg.RolloutFunction:
							mu.Lock()
							rep.VersionServed[cfg.RolloutFunction]++
							mu.Unlock()
						default:
							mu.Lock()
							rep.UnversionedServes++
							mu.Unlock()
						}
					}
				}
				record(s)
			}(inv.At, inv.Function.Name, payload)
		}
	}
	wg.Wait()
	close(stopFaults)
	<-faultsDone
	rep.WallSeconds = time.Since(start).Seconds()

	// --- Post-replay async drain ---
	drainStart := time.Now()
	stranded := awaitDrain(shared, 30*time.Second)
	rep.AsyncStranded = stranded
	rep.AsyncDrainMs = float64(time.Since(drainStart)) / float64(time.Millisecond)

	// --- Aggregate ---
	aggregate(cfg, rep, samples)
	rep.WorkerFailuresDetected = cpT.metrics.Counter("worker_failures_detected").Value()
	rep.DPFailuresDetected = cpT.metrics.Counter("dataplane_failures_detected").Value()
	rep.DPRevivals = cpT.metrics.Counter("dataplane_revivals").Value()
	rep.CPRecoveries = cpT.metrics.Counter("recoveries").Value()
	rep.LBFailovers = lb.Metrics().Counter("dataplane_failovers").Value()
	return rep, nil
}

// lbInvoker adapts the front-end LB to workflow.Invoker: every workflow
// step is a real sync invoke through the data plane tier.
type lbInvoker struct{ lb *frontend.LB }

func (v lbInvoker) Invoke(ctx context.Context, function string, payload []byte) ([]byte, error) {
	resp, err := v.lb.Invoke(ctx, &proto.InvokeRequest{Function: function, Payload: payload})
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// The two workflow templates the replay alternates between: a 3-step
// chain and a fan-out/fan-in diamond, over dedicated pinned-warm wf-*
// functions.
var chainWorkflow = &workflow.Workflow{
	Name: "chain",
	Steps: []workflow.Step{
		{Name: "a", Function: "wf-a"},
		{Name: "b", Function: "wf-b", After: []string{"a"}},
		{Name: "c", Function: "wf-c", After: []string{"b"}},
	},
}

var fanWorkflow = &workflow.Workflow{
	Name: "fan",
	Steps: []workflow.Step{
		{Name: "root", Function: "wf-a"},
		{Name: "left", Function: "wf-b", After: []string{"root"}},
		{Name: "mid", Function: "wf-c", After: []string{"root"}},
		{Name: "right", Function: "wf-d", After: []string{"root"}},
		{Name: "join", Function: "wf-e", After: []string{"left", "mid", "right"}},
	},
}

// wfFunctions are the workflow step functions, registered pinned warm
// (MinScale 1) like a deployment would pin a latency-critical pipeline.
var wfFunctions = []string{"wf-a", "wf-b", "wf-c", "wf-d", "wf-e"}

// registerFunctions registers the trace functions (compressed autoscaler
// windows, scale from zero), the workflow functions (pinned warm), and
// the rollout function's @v2 (pre-warmed canary).
func registerFunctions(tr *transport.InProc, cpT *cpTier, cfg Config) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// cpclient handles leader discovery across the tier (a follower may
	// answer the first dial after a multi-replica election).
	client := cpclient.New(tr, cpT.addrs)
	reg := func(fn core.Function) error {
		_, err := client.Call(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
		return err
	}
	for _, spec := range cfg.Trace.Functions {
		fn := traceFunction(spec.Name)
		if err := reg(fn); err != nil {
			return err
		}
	}
	for _, name := range wfFunctions {
		fn := traceFunction(name)
		fn.Scaling.MinScale = 1
		fn.Scaling.StableWindow = time.Hour
		if err := reg(fn); err != nil {
			return err
		}
	}
	v2 := traceFunction(cfg.RolloutFunction + "@v2")
	v2.Scaling.MinScale = 1
	v2.Scaling.StableWindow = time.Hour
	return reg(v2)
}

// traceFunction mirrors the warmth experiment's compressed scaling: the
// autoscaler windows shrink with the trace so functions scale to zero
// between timer firings just as they would over real minutes.
func traceFunction(name string) core.Function {
	fn := core.Function{
		Name:    name,
		Image:   "registry.local/" + name,
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	fn.Scaling.StableWindow = 300 * time.Millisecond
	fn.Scaling.PanicWindow = 100 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = 100 * time.Millisecond
	return fn
}

// awaitPinnedScale waits for every MinScale-1 function (workflow steps,
// the @v2 canary) to hold a ready sandbox before the replay starts.
func awaitPinnedScale(cpT *cpTier, cfg Config) error {
	pinned := append(append([]string{}, wfFunctions...), cfg.RolloutFunction+"@v2")
	deadline := time.Now().Add(60 * time.Second)
	for _, name := range pinned {
		for {
			if cp := cpT.leader(); cp != nil {
				if ready, _ := cp.FunctionScale(name); ready >= 1 {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("scenario: %s never scaled", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// runSchedule fires the declarative schedule against the live tiers,
// appending a human-readable line per fired fault to rep.FaultsInjected.
func runSchedule(cfg Config, start time.Time, cpT *cpTier, fl *fleet.Fleet, dps *fleet.DataPlanes,
	router *versioning.Router, rep *Report, mu *sync.Mutex,
	stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	evs := append([]Event(nil), cfg.Schedule...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	note := func(format string, args ...any) {
		mu.Lock()
		rep.FaultsInjected = append(rep.FaultsInjected, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var rackVictims []*worker.Worker
	for _, ev := range evs {
		wall := time.Duration(float64(ev.At) * cfg.TimeScale)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(wall))):
		}
		if len(ev.Rollout) > 0 {
			if err := router.SetSplit(cfg.RolloutFunction, ev.Rollout...); err != nil {
				note("t=+%v rollout split failed: %v", ev.At, err)
			} else {
				note("t=+%v rollout split installed on %s", ev.At, cfg.RolloutFunction)
			}
		}
		if ev.Promote != "" {
			if err := router.Promote(cfg.RolloutFunction, ev.Promote); err != nil {
				note("t=+%v promote failed: %v", ev.At, err)
			} else {
				note("t=+%v promoted %s", ev.At, ev.Promote)
			}
		}
		switch {
		case ev.Kind == FaultWorkerRack && ev.Action == "kill":
			rackVictims = fl.StopFraction(ev.Frac)
			note("t=+%v kill worker-rack frac=%.2f (%d workers)", ev.At, ev.Frac, len(rackVictims))
		case ev.Kind == FaultWorkerRack && ev.Action == "revive":
			if err := fl.Restart(rackVictims); err != nil {
				note("t=+%v revive worker-rack failed: %v", ev.At, err)
			} else {
				note("t=+%v revive worker-rack (%d workers)", ev.At, len(rackVictims))
			}
			rackVictims = nil
		case ev.Kind == FaultDataPlane && ev.Action == "kill":
			dps.StopOne(ev.Index)
			note("t=+%v kill dataplane %d", ev.At, ev.Index)
		case ev.Kind == FaultDataPlane && ev.Action == "revive":
			if err := dps.Restart(ev.Index); err != nil {
				note("t=+%v revive dataplane %d failed: %v", ev.At, ev.Index, err)
			} else {
				note("t=+%v revive dataplane %d", ev.At, ev.Index)
			}
		case ev.Kind == FaultControlPlane && ev.Action == "kill":
			if i := cpT.killLeader(); i >= 0 {
				note("t=+%v kill controlplane leader (replica %d)", ev.At, i)
			} else {
				note("t=+%v kill controlplane: no live leader", ev.At)
			}
		case ev.Kind == FaultControlPlane && ev.Action == "revive":
			revived := cpT.lastKilled
			if err := cpT.revive(); err != nil {
				note("t=+%v revive controlplane failed: %v", ev.At, err)
			} else {
				note("t=+%v revive controlplane replica %d", ev.At, revived)
			}
		}
	}
}

// awaitDrain polls the shared async backlog until it empties or stops
// moving for a second, returning the residue (the stranded set).
func awaitDrain(shared *store.Store, timeout time.Duration) int {
	start := time.Now()
	last, lastChange := dataplane.AsyncBacklog(shared), time.Now()
	for time.Since(start) < timeout {
		b := dataplane.AsyncBacklog(shared)
		if b == 0 {
			return 0
		}
		if b != last {
			last, lastChange = b, time.Now()
		} else if time.Since(lastChange) > time.Second {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return last
}

// aggregate buckets samples into phases (warmup, steady, then every
// named marker in the schedule) and computes the per-phase stats.
func aggregate(cfg Config, rep *Report, samples []sample) {
	type mark struct {
		at   time.Duration
		name string
	}
	marks := []mark{{0, "warmup"}, {cfg.Warmup, "steady"}}
	for _, ev := range cfg.Schedule {
		if ev.Phase != "" {
			marks = append(marks, mark{ev.At, ev.Phase})
		}
	}
	sort.SliceStable(marks, func(i, j int) bool { return marks[i].at < marks[j].at })

	phaseOf := func(at time.Duration) int {
		idx := 0
		for i, m := range marks {
			if at >= m.at {
				idx = i
			}
		}
		return idx
	}

	hists := make([]*telemetry.ExactHistogram, len(marks))
	stats := make([]PhaseStats, len(marks))
	for i, m := range marks {
		hists[i] = telemetry.NewExactHistogram()
		stats[i].Phase = m.name
		stats[i].FromMin = m.at.Minutes()
		end := cfg.Trace.Duration
		if i+1 < len(marks) {
			end = marks[i+1].at
		}
		stats[i].ToMin = end.Minutes()
	}
	for _, s := range samples {
		i := phaseOf(s.at)
		st := &stats[i]
		switch s.kind {
		case kindSync:
			st.Invocations++
			if s.failed {
				st.Failed++
				rep.LostSync++
				continue
			}
			if s.cold {
				st.ColdStarts++
			}
			if s.v2 {
				st.VersionedV2++
			}
			hists[i].ObserveMs(s.latMs)
		case kindAsync:
			st.Async++
			if s.failed {
				rep.AsyncAcceptFailed++
			} else {
				rep.AsyncAccepted++
			}
		case kindWorkflow:
			st.Workflows++
			rep.Workflows++
			if !s.failed {
				st.WorkflowOK++
				rep.WorkflowOK++
			}
		}
	}
	for i := range stats {
		st := &stats[i]
		if n := st.Invocations - st.Failed; n > 0 {
			st.ColdRate = float64(st.ColdStarts) / float64(n)
		}
		st.P50Ms = hists[i].Percentile(50)
		st.P99Ms = hists[i].Percentile(99)
		if wall := (st.ToMin - st.FromMin) * 60 * cfg.TimeScale; wall > 0 {
			st.RPS = float64(st.Invocations) / wall
		}
	}
	rep.Phases = stats
	if rep.Workflows > 0 {
		rep.WorkflowSuccessRate = float64(rep.WorkflowOK) / float64(rep.Workflows)
	}
}
