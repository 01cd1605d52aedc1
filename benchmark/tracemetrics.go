package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// traceCounts are the wrappers' RPC and byte counters at one instant.
type traceCounts struct {
	calls, bytes [numTiers][numSides][numMethods]int64
}

func (r *recorder) counts() traceCounts {
	var c traceCounts
	for t := range r.stats {
		for s := range r.stats[t] {
			for m := range r.stats[t][s] {
				c.calls[t][s][m] = r.stats[t][s][m].calls.Load()
				c.bytes[t][s][m] = r.stats[t][s][m].bytes.Load()
			}
		}
	}
	return c
}

// traceInputs is everything a traced run's per-layer metrics are made of.
type traceInputs struct {
	w           *workload
	g           *generator
	rec         *recorder
	slices      sliceSet
	quarter     int           // spans were recorded from this slice on
	first, last sample        // the bounds of the recorded part
	setup       traceCounts   // the counters when set-up ended
	registering time.Duration // spent registering, over all set-ups
	registered  int           // functions registered, over all set-ups
	coldShare   float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics computes the span- and count-based per-layer metrics and writes
// the span table and the two consistency checks to out.
func (t *traceInputs) metrics(out io.Writer) map[string]float64 {
	fold := &t.g.stats.fold
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }
	ms := func(h *hist, q float64) float64 { return h.quantile(q) / 1e6 }
	ops := float64(t.last.traced - t.first.traced)
	seconds := t.last.at.Sub(t.first.at).Seconds()

	// RPCs and bytes since set-up ended: the wrappers only count while
	// spans are recorded, so this is the recorded part of the window.
	now := t.rec.counts()
	var rpcs, bytes, cpRPCs float64
	for tr := range now.calls {
		for m := range now.calls[tr][sideCall] {
			rpcs += float64(now.calls[tr][sideCall][m] - t.setup.calls[tr][sideCall][m])
			bytes += float64(now.bytes[tr][sideCall][m] - t.setup.bytes[tr][sideCall][m])
		}
	}
	for s := range now.calls[tierControlPlane] {
		for m := range now.calls[tierControlPlane][s] {
			cpRPCs += float64(now.calls[tierControlPlane][s][m] - t.setup.calls[tierControlPlane][s][m])
		}
	}

	// Overhead: what recording costs in throughput. An open loop's
	// throughput is its pacer's, so there it is taken from operations per
	// CPU second instead.
	perCPU := func(s sliceValues) float64 { return ratio(1000, s.cpuMsPerKop) }
	rate := func(s sliceValues) float64 { return s.opsPerSec }
	if t.w.open {
		rate = perCPU
	}
	untraced, traced := t.slices[:t.quarter].median(rate), t.slices[t.quarter:].median(rate)

	v := map[string]float64{
		"frontend.self_us_p50":        us(&fold.feSelf, 0.50),
		"frontend.self_us_p99":        us(&fold.feSelf, 0.99),
		"dataplane.self_us_p50":       us(&fold.dpSelf, 0.50),
		"dataplane.self_us_p99":       us(&fold.dpSelf, 0.99),
		"worker.self_us_p50":          us(&fold.wnSelf, 0.50),
		"transport.hop_us_p50":        us(&fold.hop, 0.50),
		"transport.hop_us_p99":        us(&fold.hop, 0.99),
		"transport.rpcs_per_op":       ratio(rpcs, ops),
		"transport.bytes_per_op":      ratio(bytes, ops),
		"dataplane.queue_wait_ms_p50": ms(&fold.queueWait, 0.50),
		"dataplane.queue_wait_ms_p99": ms(&fold.queueWait, 0.99),

		"controlplane.register_us_per_fn":              ratio(float64(t.registering.Microseconds()), float64(t.registered)),
		"controlplane.dp_broadcast_bytes_per_register": ratio(float64(t.setup.bytes[tierControlPlane][sideCall][methodAddFunction]), float64(t.registered)),

		"process.alloc_bytes_per_op": ratio(float64(t.last.allocBytes-t.first.allocBytes), ops),
		"process.gc_pause_ms_per_s":  ratio(float64(t.last.gcPauseNs-t.first.gcPauseNs)/1e6, seconds),
		"process.goroutines":         float64(t.last.goroutines),
		"gen.late_us_p99":            us(&t.g.late, 0.99),
		"gen.cold_share":             t.coldShare,
		"trace.overhead_share":       1 - ratio(traced, untraced),
	}
	// The cold path: all zero on a workload that does not cold-start.
	cold := t.rec.cold
	if cold == nil {
		cold = newColdTracker()
	}
	cold.mu.Lock()
	defer cold.mu.Unlock()
	v["controlplane.create_batch_mean"] = ratio(float64(cold.creates), float64(cold.createBatches))
	v["worker.ready_batch_mean"] = ratio(float64(cold.readies), float64(cold.readyBatches))
	v["dataplane.metric_wait_ms_p50"] = ms(&cold.metricWait, 0.50)
	v["controlplane.autoscale_wait_ms_p50"] = ms(&cold.autoscaleWait, 0.50)
	v["controlplane.autoscale_wait_ms_p99"] = ms(&cold.autoscaleWait, 0.99)
	v["worker.create_ms_p50"] = ms(&cold.create, 0.50)
	v["worker.create_ms_p99"] = ms(&cold.create, 0.99)
	v["controlplane.ready_fanout_us_p50"] = us(&cold.fanout, 0.50)
	v["controlplane.ready_fanout_us_p99"] = us(&cold.fanout, 0.99)
	v["dataplane.dequeue_us_p50"] = us(&cold.dequeue, 0.50)
	v["controlplane.rpcs_per_cold_start"] = 0
	if t.rec.cold != nil {
		v["controlplane.rpcs_per_cold_start"] = ratio(cpRPCs, ops)
		fmt.Fprintf(out, "cold starts joined=%d unjoined=%d\n", cold.joined, cold.unjoined)
	}

	// The span table.
	fmt.Fprintf(out, "traced invocations=%d joined=%d unjoined=%d latency_p50_us=%.3f latency_p99_us=%.3f\n",
		int64(ops), fold.joined, fold.unjoined, us(&fold.latency, 0.50), us(&fold.latency, 0.99))
	fmt.Fprintf(out, "spans %-12s %-6s %-26s %10s %12s %12s %12s\n", "tier", "side", "method", "count", "p50_us", "p99_us", "bytes")
	for tr := range t.rec.stats {
		for s := range t.rec.stats[tr] {
			for m := range t.rec.stats[tr][s] {
				st := &t.rec.stats[tr][s][m]
				if n := now.calls[tr][s][m] - t.setup.calls[tr][s][m]; n > 0 {
					fmt.Fprintf(out, "spans %-12s %-6s %-26s %10d %12.3f %12.3f %12d\n", tierNames[tr], sideNames[s], methodNames[m],
						n, us(&st.dur, 0.50), us(&st.dur, 0.99), now.bytes[tr][s][m]-t.setup.bytes[tr][s][m])
				}
			}
		}
	}
	// The parts should add up to the whole they were cut from.
	parts := v["frontend.self_us_p50"] + v["dataplane.self_us_p50"] + v["worker.self_us_p50"] + 2*v["transport.hop_us_p50"]
	fmt.Fprintf(out, "check invoke path: self times + 2 hops = %.3f us, traced latency p50 = %.3f us, ratio %.3f\n",
		parts, us(&fold.latency, 0.50), ratio(parts, us(&fold.latency, 0.50)))
	if t.rec.cold != nil {
		stages := v["dataplane.metric_wait_ms_p50"] + v["controlplane.autoscale_wait_ms_p50"] + v["worker.create_ms_p50"] +
			(v["controlplane.ready_fanout_us_p50"]+v["dataplane.dequeue_us_p50"])/1e3
		fmt.Fprintf(out, "check cold path: stage medians = %.3f ms, queue wait p50 = %.3f ms, ratio %.3f\n",
			stages, v["dataplane.queue_wait_ms_p50"], ratio(stages, v["dataplane.queue_wait_ms_p50"]))
	}
	return v
}

// writeSpans writes the sampled raw spans, one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.rawMu.Lock()
	defer r.rawMu.Unlock()
	for i := range r.raw {
		if err := enc.Encode(&r.raw[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
