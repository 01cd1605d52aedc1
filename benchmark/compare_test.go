package main

import (
	"bytes"
	"strings"
	"testing"
)

// Python: statistics.quantiles([...], n=4) for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9, 2, 8, 5, 6, 4}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 9}, 3, 7},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python says %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func setOf(workload string, values map[string][]float64, failed int64) *savedSet {
	s := &savedSet{}
	for i := 0; i < 10; i++ {
		r := savedRun{Workload: workload, Seed: int64(i), Result: result{Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{}}}
		for name, vs := range values {
			r.Result.Metrics[name] = metricValue{Value: vs[i%len(vs)]}
		}
		s.Runs = append(s.Runs, r)
	}
	return s
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	a := setOf("warm_tcp", map[string][]float64{"latency_p50_us": steady, "throughput_ops_s": steady, "latency_p99_us": wide, "allocs_per_op": steady}, 0)
	b := setOf("warm_tcp", map[string][]float64{
		"latency_p50_us":   scale(steady, 1.30), // lower is better: 30% worse
		"throughput_ops_s": scale(steady, 1.30), // higher is better: better
		"latency_p99_us":   wide,                // same, but too spread to tell
		"allocs_per_op":    scale(steady, 1.05), // within its 10% bound
	}, 0)
	var out bytes.Buffer
	if !compareSets(&out, a, b) {
		t.Error("a 30% worse median latency was not reported as worse")
	}
	want := map[string]string{"latency_p50_us": "worse", "throughput_ops_s": "ok", "latency_p99_us": "unresolved", "allocs_per_op": "ok"}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "warm_tcp" {
			if v, ok := want[f[1]]; ok && f[len(f)-1] != v {
				t.Errorf("%s: verdict %s, want %s\n%s", f[1], f[len(f)-1], v, line)
			}
		}
	}
	out.Reset()
	if compareSets(&out, a, a) {
		t.Errorf("a set compared with itself is worse:\n%s", out.String())
	}
	if !compareSets(&out, a, setOf("warm_tcp", map[string][]float64{"latency_p50_us": steady}, 1)) {
		t.Error("a larger failed share was not reported as worse")
	}
}
