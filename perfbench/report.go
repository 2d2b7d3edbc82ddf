package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"gesmc/internal/conc"
)

// report collects one run's metrics, failure accounting and notes.
type report struct {
	workload string
	trace    bool
	ops      ops
	values   map[string]float64
	notes    []string
}

func newReport(workload string, trace bool) *report {
	return &report{workload: workload, trace: trace, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) observations(what string, n int) {
	r.notef("observations: %d %s in the timed phase", n, what)
}

// workingSet records the live heap after set-up against the caches.
func (r *report) workingSet(bytes uint64) {
	t := conc.Topology()
	r.notef("working set: %.1f MiB in use after set-up = %.1f x L2, %.2f x LLC",
		float64(bytes)/(1<<20), float64(bytes)/float64(t.L2Bytes), float64(bytes)/float64(t.LLCBytes))
}

// defs are the metrics this run reports.
func (r *report) defs() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the JSON object of the last output line. A metric of a
// layer the workload bypasses reads 0.
func (r *report) result() result {
	res := result{
		Correct:   r.ops.failures() == 0,
		Attempted: r.ops.attempted,
		Failed:    r.ops.failures(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range r.defs() {
		res.Metrics[d.name] = metricValue{r.values[d.name], d.unit}
	}
	return res
}

// print writes the notes, the failure accounting and the metric table.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload: %s (trace=%v)\n", r.workload, r.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	failed := r.ops.failures()
	fmt.Fprintf(w, "  operations: attempted=%d succeeded=%d failed=%d", r.ops.attempted, r.ops.attempted-failed, failed)
	causes := make([]string, 0, len(r.ops.failed))
	for c := range r.ops.failed {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Fprintf(w, " %s=%d", c, r.ops.failed[c])
	}
	fmt.Fprintln(w)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-28s %16.4f %s\n", d.name, r.values[d.name], d.unit)
	}
}

// runtimeWatch measures the Go runtime over a traced phase: GC cycles,
// GC pause time, and the peak heap seen at the sampled points.
type runtimeWatch struct {
	start    runtime.MemStats
	heapPeak uint64
}

func startRuntimeWatch() *runtimeWatch {
	w := &runtimeWatch{}
	runtime.ReadMemStats(&w.start)
	w.heapPeak = w.start.HeapAlloc
	return w
}

func (w *runtimeWatch) sample(ms *runtime.MemStats) { w.heapPeak = max(w.heapPeak, ms.HeapAlloc) }

func (w *runtimeWatch) finish(rep *report) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	w.sample(&end)
	rep.set("runtime.gc_count", float64(end.NumGC-w.start.NumGC))
	rep.set("runtime.gc_pause_ms", float64(end.PauseTotalNs-w.start.PauseTotalNs)/1e6)
	rep.set("runtime.heap_peak_mb", float64(w.heapPeak)/(1<<20))
}
