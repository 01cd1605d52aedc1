package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"dirigent/internal/scenario"
	"dirigent/internal/trace"
	"dirigent/internal/versioning"
)

func init() {
	register(Experiment{
		ID:    "e2e",
		Title: "End-to-end macro-benchmark: live Azure-trace replay with workflows, a versioned rollout, and injected worker and DP failures (paper §5.3 + §5.4)",
		Run:   runE2E,
	})
	register(Experiment{
		ID:    "e2ecp",
		Title: "End-to-end macro-benchmark, replicated control plane: the same live replay with the CP leader killed and revived mid-trace (paper §5.4 CP failover)",
		Run:   runE2ECP,
	})
}

// e2eScenario builds the macro-benchmark scenario: the compressed
// Azure-like trace against the full live stack (CP + 3 DP replicas on a
// shared durable store + emulated fleet), mixed sync/async/workflow
// traffic, and a fault schedule spread over the measurement window —
// canary split, worker-rack kill/revive, DP replica kill/revive, and a
// full promote.
func e2eScenario(scale float64) scenario.Config {
	tr := trace.NewAzureLike(trace.Config{
		Functions: scaleInt(120, scale, 48),
		Duration:  maxDuration(time.Duration(float64(12*time.Minute)*scale), 4*time.Minute),
		Seed:      21,
	})
	warmup := warmupFor(tr)
	span := tr.Duration - warmup
	at := func(k int) time.Duration { return warmup + span*time.Duration(k)/8 }
	rollout := scenario.HottestFunction(tr)
	v2 := rollout + "@v2"
	return scenario.Config{
		Trace:           tr,
		Warmup:          warmup,
		RolloutFunction: rollout,
		DataPlanes:      3,
		Workers:         scaleInt(24, scale, 12),
		AsyncEveryN:     7,
		WorkflowEveryN:  31,
		Schedule: []scenario.Event{
			{At: at(1), Phase: "canary", Rollout: []versioning.Version{
				{Function: rollout, Weight: 90},
				{Function: v2, Weight: 10},
			}},
			{At: at(2), Phase: "rack-loss", Kind: scenario.FaultWorkerRack, Action: "kill", Frac: 0.25},
			{At: at(3), Phase: "rack-revived", Kind: scenario.FaultWorkerRack, Action: "revive"},
			{At: at(4), Phase: "dp-loss", Kind: scenario.FaultDataPlane, Action: "kill", Index: 1},
			{At: at(5), Phase: "dp-revived", Kind: scenario.FaultDataPlane, Action: "revive", Index: 1},
			{At: at(7), Phase: "promoted", Promote: v2},
		},
	}
}

// e2ecpScenario is the 8-phase replicated-control-plane variant: a
// 3-replica CP tier with follower reads, the same trace and traffic mix,
// and a schedule that decapitates the CP tier mid-replay — the leader is
// killed in the cp-loss phase (a follower wins the election and recovers
// from its applied log) and the dead replica rejoins in cp-revived
// (catching up from the new leader's log).
func e2ecpScenario(scale float64) scenario.Config {
	cfg := e2eScenario(scale)
	cfg.ControlPlanes = 3
	cfg.CPFollowerReads = true
	warmup := cfg.Warmup
	span := cfg.Trace.Duration - warmup
	at := func(k int) time.Duration { return warmup + span*time.Duration(k)/8 }
	rollout := cfg.RolloutFunction
	v2 := rollout + "@v2"
	cfg.Schedule = []scenario.Event{
		{At: at(1), Phase: "canary", Rollout: []versioning.Version{
			{Function: rollout, Weight: 90},
			{Function: v2, Weight: 10},
		}},
		{At: at(2), Phase: "rack-loss", Kind: scenario.FaultWorkerRack, Action: "kill", Frac: 0.25},
		{At: at(3), Phase: "rack-revived", Kind: scenario.FaultWorkerRack, Action: "revive"},
		{At: at(4), Phase: "cp-loss", Kind: scenario.FaultControlPlane, Action: "kill"},
		{At: at(5), Phase: "cp-revived", Kind: scenario.FaultControlPlane, Action: "revive"},
		{At: at(6), Phase: "dp-loss", Kind: scenario.FaultDataPlane, Action: "kill", Index: 1},
		{At: at(7), Phase: "promoted", Promote: v2},
	}
	return cfg
}

// runE2E replays the scenario and writes the per-phase table. The run is
// self-checking: any lost sync invocation, stranded async record, failed
// async accept, failed workflow, or invocation served by neither rollout
// version fails the experiment — which is what the CI smoke variant
// (TestE2EScenarioSmoke) asserts at a seconds scale. At scale 1 the
// report is committed to BENCH_e2e.json.
func runE2E(w io.Writer, scale float64) error {
	return e2eRun(w, e2eScenario(scale), scale, "BENCH_e2e.json", 0)
}

// runE2ECP is the CP-failover variant: the same self-checks plus a
// recovery assertion — the tier must see at least two leadership
// recoveries (the initial election and the post-kill takeover).
func runE2ECP(w io.Writer, scale float64) error {
	return e2eRun(w, e2ecpScenario(scale), scale, "BENCH_e2e_cp.json", 2)
}

func e2eRun(w io.Writer, cfg scenario.Config, scale float64, benchFile string, wantCPRecoveries int64) error {
	fmt.Fprintf(w, "trace: %d functions, %d invocations over %v (replayed in ~%v wall); rollout target %s\n",
		len(cfg.Trace.Functions), len(cfg.Trace.Invocations), cfg.Trace.Duration,
		time.Duration(float64(cfg.Trace.Duration)/30).Round(time.Second), cfg.RolloutFunction)
	rep, err := scenario.Run(cfg)
	if err != nil {
		return err
	}

	t := newTable("phase", "from_min", "to_min", "inv", "rps", "cold_%", "p50_ms", "p99_ms",
		"async", "wf", "wf_ok", "v2")
	for _, p := range rep.Phases {
		t.addRow(p.Phase, fmt.Sprintf("%.1f", p.FromMin), fmt.Sprintf("%.1f", p.ToMin),
			p.Invocations, fmt.Sprintf("%.0f", p.RPS), fmt.Sprintf("%.1f", 100*p.ColdRate),
			p.P50Ms, p.P99Ms, p.Async, p.Workflows, p.WorkflowOK, p.VersionedV2)
	}
	t.write(w)
	for _, f := range rep.FaultsInjected {
		fmt.Fprintf(w, "# fault: %s\n", f)
	}
	fmt.Fprintf(w, "# lost_sync=%d async: accepted=%d accept_failed=%d stranded=%d drain=%.0fms\n",
		rep.LostSync, rep.AsyncAccepted, rep.AsyncAcceptFailed, rep.AsyncStranded, rep.AsyncDrainMs)
	fmt.Fprintf(w, "# workflows=%d ok=%d (%.1f%%) versions=%v unversioned=%d\n",
		rep.Workflows, rep.WorkflowOK, 100*rep.WorkflowSuccessRate, rep.VersionServed, rep.UnversionedServes)
	fmt.Fprintf(w, "# CP sweeps saw: worker_failures=%d dp_failures=%d dp_revivals=%d; lb_failovers=%d cp_recoveries=%d\n",
		rep.WorkerFailuresDetected, rep.DPFailuresDetected, rep.DPRevivals, rep.LBFailovers, rep.CPRecoveries)
	fmt.Fprintln(w, "# Expected shape: zero lost sync invocations and zero stranded async records")
	fmt.Fprintln(w, "# across every injected failure; cold rate spikes in rack-loss (re-placement)")
	fmt.Fprintln(w, "# and decays after revival; p99 absorbs the DP kill (front-end failover +")
	fmt.Fprintln(w, "# cold-start queueing) without failures; the canary serves both versions and")
	fmt.Fprintln(w, "# the promote phase serves only @v2.")

	if rep.LostSync > 0 {
		return fmt.Errorf("e2e: %d sync invocations lost", rep.LostSync)
	}
	if rep.AsyncAcceptFailed > 0 {
		return fmt.Errorf("e2e: %d async accepts failed", rep.AsyncAcceptFailed)
	}
	if rep.AsyncStranded > 0 {
		return fmt.Errorf("e2e: %d async records stranded", rep.AsyncStranded)
	}
	if rep.Workflows != rep.WorkflowOK {
		return fmt.Errorf("e2e: %d/%d workflows failed", rep.Workflows-rep.WorkflowOK, rep.Workflows)
	}
	if rep.UnversionedServes > 0 {
		return fmt.Errorf("e2e: %d invocations resolved to no registered version", rep.UnversionedServes)
	}
	if rep.CPRecoveries < wantCPRecoveries {
		return fmt.Errorf("e2e: %d control plane recoveries, want >= %d (kill should force a takeover)",
			rep.CPRecoveries, wantCPRecoveries)
	}

	if scale < 1 {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if werr := os.WriteFile(benchFile, append(data, '\n'), 0o644); werr != nil {
		fmt.Fprintf(w, "# warning: %s not written: %v\n", benchFile, werr)
	} else {
		fmt.Fprintf(w, "# wrote %s\n", benchFile)
	}
	return nil
}
