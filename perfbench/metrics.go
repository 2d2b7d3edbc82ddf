package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"switches_per_s", "1/s"},
	{"samples_per_s", "1/s"},
	{"first_sample_ms_p50", "ms"},
	{"first_sample_ms_p90", "ms"},
	{"sample_gap_ms_p50", "ms"},
	{"sample_gap_ms_p90", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"kernel.ns_per_switch", "ns"},
	{"kernel.allocs_per_superstep", "count"},
	{"kernel.rounds_avg", "count"},
	{"kernel.rounds_max", "count"},
	{"kernel.first_round_share", "ratio"},
	{"kernel.accept_ratio", "ratio"},
	{"kernel.superstep_ms_p50", "ms"},
	{"kernel.superstep_ms_p90", "ms"},
	{"rng.perm_ms", "ms"},
	{"engine.seq_ns_per_switch", "ns"},
	{"engine.speedup_vs_seq", "ratio"},
	{"gesmc.read_graph_ms", "ms"},
	{"gesmc.compile_ms", "ms"},
	{"gesmc.snapshot_ms", "ms"},
	{"service.validate_ms", "ms"},
	{"service.compile_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.pool_hit_ratio", "ratio"},
	{"service.stream_ms", "ms"},
	{"service.kernel_share", "ratio"},
	{"wire.request_bytes", "bytes"},
	{"wire.request_decode_ms", "ms"},
	{"wire.line_bytes", "bytes"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"client.gate_share", "ratio"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.wall_covered_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// ops is the failure accounting of one run: operations are timed calls
// (kernel-large) or requests (serve-*), each either succeeding or
// failing for one recorded cause.
type ops struct {
	attempted int
	failed    map[string]int
}

func (o *ops) try() { o.attempted++ }

func (o *ops) fail(cause string) {
	if o.failed == nil {
		o.failed = map[string]int{}
	}
	o.failed[cause]++
}

func (o *ops) failures() int {
	n := 0
	for _, c := range o.failed {
		n += c
	}
	return n
}

// percentile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no observations.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// msSince is the time from a to b in milliseconds.
func msSince(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setPeakRSS reports peak_rss_mb, the process's peak resident set
// (VmHWM) in MiB. The run fails when it cannot be read.
func setPeakRSS(rep *report) error {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	for line := range strings.Lines(string(raw)) {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return fmt.Errorf("peak RSS: %w", err)
			}
			rep.set("peak_rss_mb", kb/1024)
			return nil
		}
	}
	return errors.New("peak RSS: no VmHWM in /proc/self/status")
}
