package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// runSeconds is BENCHMARK.json's run_seconds, the window `repeat` and a
// bare run use.
const runSeconds = 30

// savedRun and savedSet are the saved form of a set of untraced runs.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

type savedSet struct {
	Env     env        `json:"env"`
	Seconds int        `json:"seconds"`
	Runs    []savedRun `json:"runs"`
}

func loadSet(path string) (*savedSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s savedSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), which is
// what the driver computes spreads with. It needs two values or more.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

func (s *savedSet) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (s *savedSet) failedShare(workload string) float64 {
	var attempted, failed int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// compareSets prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, the metric's bound and a verdict: worse
// (beyond the bound), unresolved (within it, but the runs of a set spread
// wider than the bound, so the medians decide nothing) or ok. It reports
// whether anything was worse, a larger failed share included.
func compareSets(out io.Writer, a, b *savedSet) (worse bool) {
	fmt.Fprintf(out, "A env %s\nB env %s\n", a.Env, b.Env)
	fmt.Fprintf(out, "%-12s %-18s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(w.name, d.name), b.values(w.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			if d.higher {
				change = -change
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case change > d.bound:
				verdict, worse = "worse", true
			case sp > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-12s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n", w.name, d.name, ma, mb, 100*change, 100*sp, 100*d.bound, verdict)
		}
		fa, fb := a.failedShare(w.name), b.failedShare(w.name)
		verdict := "ok"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(out, "%-12s %-18s %14.6g %14.6g %35s\n", w.name, "failed share", fa, fb, verdict)
	}
	return worse
}

func compareCommand(args []string) (worse bool, err error) {
	if len(args) != 2 {
		return false, fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	a, err := loadSet(args[0])
	if err != nil {
		return false, err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return false, err
	}
	return compareSets(os.Stdout, a, b), nil
}

// repeatCommand runs --sets sets of --seeds untraced runs of every
// workload, each run a child process as the driver runs them and each
// with its own seed, saves the sets, prints each set's spreads and
// compares every set with the one before it.
func repeatCommand(args []string) (worse bool, err error) {
	fs := flag.NewFlagSet("benchmark repeat", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "number of sets")
	seeds := fs.Int("seeds", 10, "runs of each workload in a set, each with its own seed")
	seconds := fs.Int("seconds", runSeconds, "length of each run's measured window")
	dir := fs.String("dir", ".bench_tmp", "where the sets are saved")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return false, err
	}
	var all []*savedSet
	for s := 0; s < *sets; s++ {
		set := &savedSet{Env: currentEnv(), Seconds: *seconds}
		for _, w := range workloads {
			for i := 1; i <= *seeds; i++ {
				seed := int64(s**seeds + i)
				cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return false, fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
				}
				fmt.Printf("set %d %s seed %d: %s\n", s+1, w.name, seed, lines[len(lines)-1])
				if !res.Correct || res.Failed > 0 {
					worse = true
				}
				set.Runs = append(set.Runs, savedRun{Workload: w.name, Seed: seed, Result: res})
			}
		}
		path := filepath.Join(*dir, fmt.Sprintf("set-%d.json", s+1))
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return false, err
		}
		fmt.Printf("saved %s\n", path)
		all = append(all, set)
	}
	for s, set := range all {
		fmt.Printf("set %d spreads (interquartile range / median; steady means under a third of the bound)\n", s+1)
		for _, w := range workloads {
			for _, d := range endToEnd {
				vs := set.values(w.name, d.name)
				note := ""
				if sp := spread(vs); sp > d.bound {
					note = "  over the bound"
				} else if sp > d.bound/3 {
					note = "  over a third of the bound"
				}
				fmt.Printf("%-12s %-18s median %14.6g spread %6.2f%% bound %3.0f%%%s\n", w.name, d.name, median(vs), 100*spread(vs), 100*d.bound, note)
			}
		}
	}
	for s := 1; s < len(all); s++ {
		fmt.Printf("set %d against set %d\n", s+1, s)
		if compareSets(os.Stdout, all[s-1], all[s]) {
			worse = true
		}
	}
	return worse, nil
}
