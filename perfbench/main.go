// Command perfbench is the repository's benchmark: three single-process,
// closed-loop workloads driven through gesmc's public entry points, with
// every output checked. See README.md for what each workload measures
// and what is deliberately left unmeasured.
//
//	perfbench --workload kernel-large|serve-warm|serve-cold --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result as one JSON object;
// human-readable notes go to standard error. The exit code is non-zero
// when any operation failed or any output failed the correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"gesmc/internal/conc"
)

// config sizes a run. The full sizes are the workloads' definitions;
// the package test shrinks them.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	setups  int // set-up repetitions; setup_s is their median

	kernelNodes int

	warmNodes   int
	warmSamples int // samples per request

	coldNodes    int
	coldArcs     int
	coldGraphs   int // distinct arc lists cycled through
	coldRequests int // warm-up requests per set-up
}

// The kernel's schedule is the same at every size.
const (
	kernelWorkers      = 2 // the gang of kernel-large
	kernelWarmup       = 2 // supersteps of warm-up after compile
	kernelStepsPerCall = 2 // supersteps per timed Step call
	seqSteps           = 2 // supersteps of the sequential baseline probe
)

// phase is the length of one timed phase: a traced run splits its time
// between an untraced phase, the base of the tracing overhead, and a
// traced one.
func (c config) phase() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

func fullConfig(seed uint64, seconds time.Duration, trace bool) config {
	return config{
		seed: seed, seconds: seconds, trace: trace, setups: 3,
		kernelNodes: 1 << 20,
		warmNodes:   1 << 14, warmSamples: 20,
		coldNodes: 1 << 12, coldArcs: 1 << 13, coldGraphs: 16, coldRequests: 50,
	}
}

var workloads = map[string]func(config, *report) error{
	"kernel-large": kernelLarge,
	"serve-warm":   serveWarm,
	"serve-cold":   serveCold,
}

func main() {
	workload := flag.String("workload", "", "kernel-large, serve-warm or serve-cold")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := fullConfig(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	printHardware()
	rep := newReport(*workload, cfg.trace)
	if err := run(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stderr)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.ops.failures() > 0 {
		os.Exit(1)
	}
}

// printHardware writes the hardware block the figures depend on.
func printHardware() {
	t := conc.Topology()
	fmt.Fprintf(os.Stderr, "hardware: nproc=%d GOMAXPROCS=%d go=%s L2=%d KiB LLC=%d KiB (shared by %d CPUs, detected=%v)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), t.L2Bytes>>10, t.LLCBytes>>10, t.LLCSharers, t.Detected)
}
