package experiments

import (
	"strings"
	"testing"
)

// TestE2EScenarioSmoke is the seconds-scale CI variant of the e2e
// macro-benchmark: the full live stack (CP + DP replicas + emulated
// fleet), mixed sync/async/workflow traffic, the canary → promote
// rollout, and every scheduled fault (worker-rack kill/revive, DP
// replica kill/revive) — runE2E itself fails on any lost
// sync invocation, stranded async record, failed async accept, failed
// workflow, or unversioned serve, so a nil error IS the assertion.
func TestE2EScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e macro-benchmark smoke skipped in -short mode")
	}
	var buf strings.Builder
	if err := runE2E(&buf, 0.12); err != nil {
		t.Fatalf("e2e smoke: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"rack-loss", "dp-loss", "promoted", "lost_sync=0", "stranded=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e2e smoke output missing %q:\n%s", want, out)
		}
	}
}

// TestE2ECPScenarioSmoke is the CI variant of the replicated-CP replay:
// a 3-replica CP tier with follower reads, the leader killed and revived
// mid-trace. runE2ECP fails on any lost/stranded work and requires at
// least two leadership recoveries, so a nil error IS the assertion.
func TestE2ECPScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e macro-benchmark smoke skipped in -short mode")
	}
	var buf strings.Builder
	if err := runE2ECP(&buf, 0.12); err != nil {
		t.Fatalf("e2ecp smoke: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"cp-loss", "cp-revived", "kill controlplane leader", "revive controlplane replica",
		"lost_sync=0", "stranded=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("e2ecp smoke output missing %q:\n%s", want, out)
		}
	}
}
