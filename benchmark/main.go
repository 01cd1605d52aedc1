// Command benchmark is the repository's benchmark: it assembles a live
// Dirigent cluster in this process, drives one workload against it, and
// prints every metric by name and unit, ending with one JSON result line.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark repeat --sets 2 --seeds 10
//	benchmark compare A.json B.json
//
// README.md describes the workloads, the metrics and how they connect.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(realMain(os.Args[1:])) }

// realMain returns the exit code: 1 when compare or repeat found something
// worse, 2 on an error.
func realMain(args []string) int {
	var worse bool
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		worse, err = compareCommand(args[1:])
	case len(args) > 0 && args[0] == "repeat":
		worse, err = repeatCommand(args[1:])
	default:
		err = runCommand(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

func runCommand(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "one of warm_inproc, warm_tcp, cold_open")
	seed := fs.Int64("seed", 1, "seeds function order, request IDs and payload")
	seconds := fs.Int("seconds", runSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := defaultRunConfig()
	if cfg.workload = findWorkload(*name); cfg.workload == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("--seconds %d outside 1..60", *seconds)
	}
	cfg.seed, cfg.seconds, cfg.trace = *seed, *seconds, *trace == 1
	_, err := run(cfg)
	return err
}
