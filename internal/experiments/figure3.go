package experiments

import (
	"fmt"
	"io"
	"time"
)

func init() {
	register(Experiment{
		ID:    "fig3-live",
		Title: "Cold-start rate over time from live scheduling telemetry (paper Fig. 3, live counterpart of the simulated fig3)",
		Run:   runFig3Live,
	})
}

// runFig3Live regenerates the paper's Figure 3 shape — sandbox-creation rate
// over time — from the live control plane's own telemetry instead of a
// model: back-to-back cold-start bursts run against the real cluster for
// a fixed window, and the sandbox_ready_ms histogram's count is sampled
// on a fixed tick to produce the creations-per-interval series. The
// cold_start_sched_ms and create/endpoint batch-size histograms
// accumulated by the same run are reported with it, so the
// rate series and the scheduling-latency telemetry that explains it come
// from one live execution.
func runFig3Live(w io.Writer, scale float64) error {
	window := time.Duration(float64(6*time.Second) * scale)
	if window < 1500*time.Millisecond {
		window = 1500 * time.Millisecond
	}
	const tick = 250 * time.Millisecond
	burst := scaleInt(64, scale, 16)

	type sample struct {
		at      time.Duration
		created int64
	}
	var res struct {
		series              []sample
		schedP50, schedP99  float64
		batchP50, fanoutP50 float64
		bursts              int
	}

	h, err := NewColdStartHarness(ColdStartConfig{
		Workers:      4,
		Burst:        burst,
		LatencyScale: 0.02,
		Seed:         3,
	})
	if err != nil {
		return err
	}
	m := h.CP().Metrics()
	ready := m.Histogram("sandbox_ready_ms")

	done := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		// Back-to-back bursts until the sampling window closes: the
		// sustained creation load whose rate the series shows.
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := h.RunBurst(); err != nil {
				done <- err
				return
			}
			res.bursts++
		}
	}()

	start := time.Now()
	var prev int64
	for elapsed := time.Duration(0); elapsed < window; {
		time.Sleep(tick)
		elapsed = time.Since(start)
		cur := int64(ready.Count())
		res.series = append(res.series, sample{at: elapsed, created: cur - prev})
		prev = cur
	}
	close(stop)
	err = <-done
	if err == nil {
		res.schedP50 = m.Histogram("cold_start_sched_ms").Percentile(50)
		res.schedP99 = m.Histogram("cold_start_sched_ms").Percentile(99)
		res.batchP50 = m.Histogram("create_batch_size").Percentile(50)
		res.fanoutP50 = m.Histogram("endpoint_fanout_batch_size").Percentile(50)
	}
	h.Close()
	if err != nil {
		return err
	}

	t := newTable("t_s", "creations_per_s")
	for _, s := range res.series {
		t.addRow(fmt.Sprintf("%.2f", s.at.Seconds()), float64(s.created)/tick.Seconds())
	}
	t.write(w)
	s := newTable("bursts", "sched_p50_ms", "sched_p99_ms", "create_batch_p50", "fanout_p50")
	s.addRow(res.bursts, res.schedP50, res.schedP99, res.batchP50, res.fanoutP50)
	s.write(w)
	fmt.Fprintln(w, "# Expected shape: a steady creation rate (wall-clock is runtime-latency-bound)")
	fmt.Fprintln(w, "# with create_batch_p50 ≈ burst/workers and coalesced endpoint fan-out, i.e.")
	fmt.Fprintln(w, "# O(workers) RPCs per sweep instead of O(sandboxes), which is what lets the")
	fmt.Fprintln(w, "# creation rate scale with cluster size.")
	return nil
}
