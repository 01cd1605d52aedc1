// Command loader is the InVitro-style load generator (paper §5.1) for a
// running Dirigent cluster: it generates (or reads) an Azure-shaped trace,
// registers one function per trace entry against the control plane, replays
// the trace's invocations through the data planes in real time (optionally
// time-compressed), and reports the scheduling-latency and slowdown
// statistics of §5.3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/frontend"
	"dirigent/internal/proto"
	"dirigent/internal/telemetry"
	"dirigent/internal/trace"
	"dirigent/internal/transport"
)

func main() {
	cps := flag.String("control-planes", "127.0.0.1:7000", "comma-separated control plane addresses")
	dps := flag.String("data-planes", "127.0.0.1:8000", "comma-separated seed data plane addresses (membership then syncs dynamically from the control plane)")
	functions := flag.Int("functions", 50, "number of trace functions to generate")
	minutes := flag.Int("minutes", 2, "trace duration in minutes (before compression)")
	compress := flag.Float64("compress", 10, "time compression factor (10 = run 10x faster than the trace)")
	seed := flag.Int64("seed", 42, "trace seed")
	csvIn := flag.String("trace", "", "replay this trace CSV instead of generating one")
	image := flag.String("image", "registry.local/trace-fn", "container image registered for trace functions")
	flag.Parse()

	tr := transport.NewTCP()
	defer tr.Close()
	cpAddrs := strings.Split(*cps, ",")
	cp := cpclient.New(tr, cpAddrs)
	// The static -data-planes list only seeds membership; the front end
	// keeps it in sync with the control plane's live replica set, so data
	// planes added, killed, or revived mid-replay steer correctly.
	lb := frontend.New(frontend.Config{
		Transport:     tr,
		DataPlanes:    strings.Split(*dps, ","),
		ControlPlanes: cpAddrs,
	})
	if err := lb.Start(); err != nil {
		fatal("start front end: %v", err)
	}
	defer lb.Stop()

	var workload *trace.Trace
	if *csvIn != "" {
		f, err := os.Open(*csvIn)
		if err != nil {
			fatal("open trace: %v", err)
		}
		workload, err = trace.ParseCSV(f)
		f.Close()
		if err != nil {
			fatal("parse trace: %v", err)
		}
	} else {
		workload = trace.NewAzureLike(trace.Config{
			Functions: *functions,
			Duration:  time.Duration(*minutes) * time.Minute,
			Seed:      *seed,
		})
	}
	fmt.Printf("workload: %d functions, %d invocations over %v (compress %.0fx)\n",
		len(workload.Functions), workload.TotalInvocations(), workload.Duration, *compress)

	// Register every function.
	regStart := time.Now()
	for _, fn := range workload.Functions {
		spec := core.Function{
			Name:    fn.Name,
			Image:   *image,
			Port:    8080,
			Scaling: core.DefaultScalingConfig(),
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := cp.Call(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&spec))
		cancel()
		if err != nil {
			fatal("register %s: %v", fn.Name, err)
		}
	}
	fmt.Printf("registered %d functions in %v (%.2f ms/function)\n",
		len(workload.Functions), time.Since(regStart).Round(time.Millisecond),
		float64(time.Since(regStart).Milliseconds())/float64(len(workload.Functions)))

	// Replay invocations on the compressed timeline.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		scheduled = telemetry.NewExactHistogram()
		slowdowns = telemetry.NewExactHistogram()
		failures  int
		cold      int
	)
	start := time.Now()
	for _, inv := range workload.Invocations {
		inv := inv
		at := time.Duration(float64(inv.At) / *compress)
		delay := at - time.Since(start)
		if delay > 0 {
			time.Sleep(delay)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := time.Duration(float64(inv.Exec) / *compress)
			payload := make([]byte, 8)
			v := uint64(exec)
			for i := 0; i < 8; i++ {
				payload[i] = byte(v >> (8 * i))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			t0 := time.Now()
			resp, err := lb.Invoke(ctx, &proto.InvokeRequest{Function: inv.Function.Name, Payload: payload})
			e2e := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				return
			}
			if resp.ColdStart {
				cold++
			}
			scheduled.ObserveMs(float64(resp.SchedulingLatencyUs) / 1000)
			if exec > 0 {
				slowdowns.ObserveMs(float64(e2e) / float64(exec))
			}
		}()
	}
	wg.Wait()

	fmt.Printf("\ncompleted %d invocations in %v (%d cold starts, %d failures)\n",
		workload.TotalInvocations()-failures, time.Since(start).Round(time.Second), cold, failures)
	fmt.Printf("scheduling latency: %s\n", scheduled.Summary())
	fmt.Printf("slowdown:           %s\n", slowdowns.Summary())
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
