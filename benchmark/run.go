package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dirigent/internal/core"
)

// workload is one traffic mix. Why each exists is in BENCHMARK.json and
// README.md.
type workload struct {
	name      string
	tcp       bool // components talk over loopback TCP, not in-process
	functions int
	// open selects an open loop of rate invocations/s in which every
	// invocation is a cold start; otherwise the loop is closed and warm.
	open bool
	rate int
}

var workloads = []workload{
	{name: "warm_inproc", functions: 256},
	{name: "warm_tcp", functions: 256, tcp: true},
	// 768 functions at 500/s come round every 1.54 s, long after the
	// 100 ms grace and 200 ms window have scaled the sandbox away.
	{name: "cold_open", functions: 768, open: true, rate: 500},
}

// One P for the whole cluster and its one client, whatever the machine
// has. On two P's the Go scheduler's idle spinning and the host's waking
// of halted virtual CPUs were most of a TCP invocation's CPU time (45
// against 26 ms/kop) and most of its run-to-run spread, for which the
// driver refused the benchmark's first version (README.md, third
// post-mortem); on one P the process is one busy thread, every timing is
// path length, and nothing depends on nproc.
func init() { runtime.GOMAXPROCS(1) }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one benchmark run. The driver sets the first four fields;
// the rest are fixed by defaultRunConfig and shortened only by tests.
type runConfig struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool

	setupBudget        time.Duration // repeat set-up until this much is spent,
	setupMin, setupMax int           // within these counts
	warmup             time.Duration
	settle             time.Duration // before the live heap is read
	spanDir            string        // where a traced run writes its spans
	out                io.Writer     // the human-readable report
}

func defaultRunConfig() runConfig {
	return runConfig{
		setupBudget: 3 * time.Second, setupMin: 5, setupMax: 9,
		warmup: 2 * time.Second, settle: 500 * time.Millisecond,
		spanDir: ".bench_tmp", out: os.Stdout,
	}
}

func makeFunctions(w *workload, seed int64) []core.Function {
	fns := make([]core.Function, w.functions)
	for i := range fns {
		sc := core.DefaultScalingConfig()
		if w.open {
			sc.StableWindow = 200 * time.Millisecond
			sc.PanicWindow = 50 * time.Millisecond
			sc.ScaleToZeroGrace = 100 * time.Millisecond
		} else {
			sc.MinScale, sc.MaxScale = 1, 1 // pinned warm
		}
		fns[i] = core.Function{Name: fmt.Sprintf("fn-%04d", i), Image: functionImage, Port: functionPort, Scaling: sc}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })
	return fns
}

// setUp brings a cluster to the state the workload starts from: every
// function registered and, for a warm workload, a ready sandbox known to
// every data plane. It also returns the time registration alone took.
func setUp(w *workload, fns []core.Function, rec *recorder) (*cluster, time.Duration, error) {
	c, err := startCluster(w.tcp, rec)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	err = c.register(fns)
	registering := time.Since(t0)
	if err == nil && !w.open {
		// Scale up now rather than at the next 50 ms tick: set-up time
		// should say how much work set-up is, not where the tick fell.
		c.cp.Reconcile()
		err = c.awaitEndpoints(fns, 30*time.Second)
	}
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, registering, nil
}

// sample is the process and generator state at one slice boundary.
type sample struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	goroutines int
	ok, traced int64
	dbWrites   int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSample(g *generator) sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := sample{
		at: time.Now(), cpu: processCPU(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs,
		goroutines: runtime.NumGoroutine(), dbWrites: g.c.db.writes.Load(),
	}
	s.ok, s.traced = g.stats.ok.Load(), g.stats.traced.Load()
	return s
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output, as the driver reads it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run performs one benchmark run and writes its report, ending in the
// result line, to cfg.out.
func run(cfg runConfig) (*result, error) {
	w := cfg.workload
	out := cfg.out
	// Slices are 1 s, so that a stalled second is one value among many;
	// runs shorter than 4 s (tests) still get four.
	sliceLen := time.Second
	nSlices := cfg.seconds
	if cfg.seconds < 4 {
		nSlices, sliceLen = 4, time.Duration(cfg.seconds)*time.Second/4
	}
	fmt.Fprintf(out, "# dirigent benchmark\nenv %s\n", currentEnv())
	fmt.Fprintf(out, "workload %s seed=%d seconds=%d trace=%t functions=%d transport=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, w.functions, map[bool]string{false: "inproc", true: "tcp"}[w.tcp])

	var rec *recorder
	if cfg.trace {
		ring := 1
		if w.open {
			ring = opRingSize
		}
		rec = newRecorder(ring, requestMask(cfg.seed), w.open)
		rec.mode.Store(modeCount)
	}

	// Set-up, several times over: one set-up is too short to time well.
	fns := makeFunctions(w, cfg.seed)
	var c *cluster
	var setups []float64
	var registering time.Duration
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		var reg time.Duration
		var err error
		if c, reg, err = setUp(w, fns, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		registering += reg
		setups = append(setups, d.Seconds())
		if len(setups) >= cfg.setupMax || len(setups) >= cfg.setupMin && spent >= cfg.setupBudget {
			break
		}
		c.stop()
	}
	defer c.stop()
	fmt.Fprintf(out, "setup runs=%d seconds=%.4f\n", len(setups), setups)
	var setupStats traceCounts
	if rec != nil {
		setupStats = rec.counts()
		rec.mode.Store(modeOff)
	}

	names := make([]string, len(fns))
	for i := range fns {
		names[i] = fns[i].Name
	}
	g := newGenerator(c, rec, w, names, cfg.seed, nSlices, sliceLen)
	g.start()
	time.Sleep(cfg.warmup)

	// The measured window. A traced run records spans only after its
	// first quarter, which gives the untraced figure for the overhead.
	quarter := nSlices / 4
	start := time.Now()
	g.beginWindow(start)
	samples := make([]sample, 0, nSlices+1)
	for k := 0; k <= nSlices; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * sliceLen)))
		if rec != nil && k == quarter {
			rec.mode.Store(modeFull)
		}
		samples = append(samples, takeSample(g))
	}
	g.finish()
	if rec != nil {
		rec.mode.Store(modeOff)
	}

	time.Sleep(cfg.settle)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// Totals and the correctness verdict.
	ok, failed := g.stats.ok.Load(), g.stats.failed.Load()
	wrong, cold := g.stats.wrong.Load(), g.stats.cold.Load()
	res := &result{Attempted: ok + failed, Failed: failed, Metrics: map[string]metricValue{}}
	coldShare := 0.0
	if ok > 0 {
		coldShare = float64(cold) / float64(ok)
	}
	windowWrites := samples[nSlices].dbWrites - samples[0].dbWrites
	var faults []string
	if ok == 0 {
		faults = append(faults, "no operation succeeded")
	}
	if wrong > 0 {
		faults = append(faults, fmt.Sprintf("%d responses did not echo their request", wrong))
	}
	if res.Attempted > 0 && float64(failed)/float64(res.Attempted) > 0.001 {
		faults = append(faults, fmt.Sprintf("failed share %d/%d above 0.001", failed, res.Attempted))
	}
	if w.open && coldShare < 0.99 {
		faults = append(faults, fmt.Sprintf("cold share %.4f below 0.99 on a cold workload", coldShare))
	}
	if !w.open && coldShare > 0.01 {
		faults = append(faults, fmt.Sprintf("cold share %.4f above 0.01 on a warm workload", coldShare))
	}
	if w.open && windowWrites > 0 {
		faults = append(faults, fmt.Sprintf("%d durable writes during cold starts", windowWrites))
	}
	res.Correct = len(faults) == 0
	fmt.Fprintf(out, "window slices=%d slice_s=%g attempted=%d failed=%d wrong_echo=%d cold_share=%.4f durable_writes=%d\n",
		nSlices, sliceLen.Seconds(), res.Attempted, failed, wrong, coldShare, windowWrites)
	for _, f := range faults {
		fmt.Fprintf(out, "incorrect: %s\n", f)
	}

	slices := sliceMetrics(g, samples)
	for k, v := range slices {
		fmt.Fprintf(out, "slice %d ops=%d p50_us=%.4g p99_us=%.4g cpu_ms_per_kop=%.4g allocs_per_op=%.4g\n",
			k, v.ops, v.p50us, v.p99us, v.cpuMsPerKop, v.allocsPerOp)
	}
	var values map[string]float64
	decls := endToEnd
	if !cfg.trace {
		values = map[string]float64{
			"latency_p50_us":   slices.best(false, func(s sliceValues) float64 { return s.p50us }),
			"latency_p99_us":   slices.best(false, func(s sliceValues) float64 { return s.p99us }),
			"throughput_ops_s": slices.best(true, func(s sliceValues) float64 { return s.opsPerSec }),
			"cpu_ms_per_kop":   slices.best(false, func(s sliceValues) float64 { return s.cpuMsPerKop }),
			"allocs_per_op":    slices.median(func(s sliceValues) float64 { return s.allocsPerOp }),
			"heap_live_mb":     float64(ms.HeapAlloc) / (1 << 20),
			"setup_s":          median(setups),
		}
		fmt.Fprintf(out, "latency samples=%d\n", ok)
	} else {
		decls = perLayer
		tr := traceInputs{
			w: w, g: g, rec: rec, slices: slices, quarter: quarter,
			first: samples[quarter], last: samples[nSlices],
			setup: setupStats, registering: registering, registered: len(setups) * len(fns),
			coldShare: coldShare,
		}
		values = tr.metrics(out)
		probeReconcile(c, len(fns), values)
		c.stop()
		runProbes(values)
		if err := rec.writeSpans(filepath.Join(cfg.spanDir, "spans-"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	for _, d := range decls {
		v, present := values[d.name]
		if !present || math.IsNaN(v) || math.IsInf(v, 0) {
			// Nothing completed, so there is nothing to report; the
			// result line still has to carry every declared name.
			v = 0
			res.Correct = false
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %s %.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// sliceValues are the per-slice values of the timing metrics.
type sliceValues struct {
	opsPerSec, cpuMsPerKop, allocsPerOp float64
	p50us, p99us                        float64
	ops                                 int64
}

type sliceSet []sliceValues

func sliceMetrics(g *generator, samples []sample) sliceSet {
	set := make(sliceSet, 0, len(samples)-1)
	for k := 0; k+1 < len(samples); k++ {
		a, b := samples[k], samples[k+1]
		v := sliceValues{ops: b.ok - a.ok}
		v.opsPerSec = float64(v.ops) / b.at.Sub(a.at).Seconds()
		if v.ops > 0 {
			v.cpuMsPerKop = float64(b.cpu-a.cpu) / float64(time.Millisecond) / float64(v.ops) * 1000
			v.allocsPerOp = float64(b.mallocs-a.mallocs) / float64(v.ops)
		}
		v.p50us = g.stats.lat[k].quantile(0.50) / 1e3
		v.p99us = g.stats.lat[k].quantile(0.99) / 1e3
		set = append(set, v)
	}
	return set
}

// values are f of the slices in which something completed: a slice the
// host stalled away says nothing about cost per operation.
func (s sliceSet) values(f func(sliceValues) float64) []float64 {
	var vs []float64
	for _, v := range s {
		if v.ops > 0 {
			vs = append(vs, f(v))
		}
	}
	return vs
}

func (s sliceSet) median(f func(sliceValues) float64) float64 { return median(s.values(f)) }

// best is the mean of f over the best quarter of the slices, the highest
// values when higher is better and the lowest otherwise. It is what every
// timing metric reports. A shared host slows the guest down for seconds to
// minutes at a time and hardly ever speeds it up (while it lasts an
// invocation over TCP takes 1.4 times as long, and nothing inside the
// guest accounts for it), so the fast slices are the program and the slow
// ones the host. The median over slices reports whichever level held more
// than half of the run, and on the same sets of ten runs spread up to
// 29 % where the best quarter spread up to 17 % (README.md, third
// post-mortem).
func (s sliceSet) best(higher bool, f func(sliceValues) float64) float64 {
	vs := s.values(f)
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	if n := max(1, len(vs)/4); higher {
		vs = vs[len(vs)-n:]
	} else {
		vs = vs[:n]
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
