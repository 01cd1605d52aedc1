package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// quickConfig is a run short enough for a test: one set-up, a brief
// warm-up, no long settle.
func quickConfig(w *workload, seconds int, trace bool) runConfig {
	cfg := defaultRunConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = w, 1, seconds, trace
	cfg.setupBudget, cfg.setupMin, cfg.setupMax = 0, 1, 1
	cfg.warmup, cfg.settle = 500*time.Millisecond, 50*time.Millisecond
	return cfg
}

// childEnv makes the test binary act as the benchmark: "<workload> <seconds>"
// runs that workload untraced with quickConfig. TestStall needs the run
// in a process of its own, to stop and continue it.
const childEnv = "BENCHMARK_TEST_CHILD"

func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		fields := strings.Fields(spec)
		seconds, _ := strconv.Atoi(fields[1])
		cfg := quickConfig(findWorkload(fields[0]), seconds, false)
		if _, err := run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json and the declarations in this package say the same.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars) against %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, declared []manifestMetric, want []metricDecl, bounded bool) {
		if len(declared) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(want))
		}
		for i, d := range declared {
			w := want[i]
			better := map[bool]string{false: "lower", true: "higher"}[w.higher]
			if d.Name != w.name || d.Unit != w.unit || d.Better != better || d.Bound != w.bound {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, d, w)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// The best quarter is taken from the right end, a slice in which nothing
// completed is left out, and fewer than four slices still give a value.
func TestBestQuarter(t *testing.T) {
	var set sliceSet
	for _, v := range []float64{9, 1, 8, 2, 7, 3, 6, 4} {
		set = append(set, sliceValues{ops: 1, p50us: v})
	}
	set = append(set, sliceValues{ops: 0, p50us: 0}) // stalled away
	p50 := func(s sliceValues) float64 { return s.p50us }
	if got := set.best(false, p50); got != 1.5 {
		t.Errorf("lowest quarter of 1..9 without 5: mean %v, want 1.5", got)
	}
	if got := set.best(true, p50); got != 8.5 {
		t.Errorf("highest quarter: mean %v, want 8.5", got)
	}
	if got := set[:2].best(false, p50); got != 1 {
		t.Errorf("two slices: %v, want the better one, 1", got)
	}
	if got := (sliceSet{}).best(false, p50); !math.IsNaN(got) {
		t.Errorf("no slices: %v, want NaN", got)
	}
}

// Each workload, untraced and traced, for one second: the run is correct,
// and exactly the declared metrics come out, in the report and in the
// result line, each with its declared unit.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			w := &workloads[i]
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				var report bytes.Buffer
				cfg := quickConfig(w, 1, trace)
				cfg.out, cfg.spanDir = &report, t.TempDir()
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
				}
				declared := m.EndToEnd
				if trace {
					declared = m.PerLayer
				}
				lines := strings.Split(strings.TrimSpace(report.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				printed := map[string]string{}
				for _, l := range lines {
					if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
						printed[f[1]] = f[3]
					}
				}
				if len(last.Metrics) != len(declared) || len(printed) != len(declared) {
					t.Errorf("%d metrics in the result line, %d printed, %d declared", len(last.Metrics), len(printed), len(declared))
				}
				for _, d := range declared {
					if got, ok := last.Metrics[d.Name]; !ok || got.Unit != d.Unit {
						t.Errorf("%s: result line has %+v (present=%t), declared unit %s", d.Name, got, ok, d.Unit)
					}
					if printed[d.Name] != d.Unit {
						t.Errorf("%s: printed with unit %q, declared %s", d.Name, printed[d.Name], d.Unit)
					}
				}
				if !trace {
					for _, d := range declared {
						if last.Metrics[d.Name].Value <= 0 {
							t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, last.Metrics[d.Name].Value)
						}
					}
				} else if _, err := os.Stat(cfg.spanDir + "/spans-" + w.name + ".jsonl"); err != nil {
					t.Errorf("no span file: %v", err)
				}
			})
		}
	}
}

// A 1 s pause of the whole process in mid-run, as a shared host imposes,
// fails nothing: the run PR 11's benchmark did not survive, because its
// cluster's 500 ms failure detector fired when the process woke up.
func TestStall(t *testing.T) {
	for _, name := range []string{"warm_tcp", "cold_open"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), childEnv+"="+name+" 4")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var last string
			lines := bufio.NewScanner(stdout)
			lines.Buffer(nil, 1<<20)
			for lines.Scan() {
				last = lines.Text()
				if strings.HasPrefix(last, "setup ") {
					// Set-up is done; after the 0.5 s warm-up comes the 4 s
					// window, so 2 s from now is inside it.
					time.Sleep(2 * time.Second)
					if err := cmd.Process.Signal(syscall.SIGSTOP); err != nil {
						t.Error(err)
					}
					time.Sleep(time.Second)
					if err := cmd.Process.Signal(syscall.SIGCONT); err != nil {
						t.Error(err)
					}
				}
			}
			if err := cmd.Wait(); err != nil {
				t.Fatalf("child: %v", err)
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("last line %q: %v", last, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("after a 1 s stall: correct=%t failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}
