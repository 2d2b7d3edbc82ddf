package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"gesmc"
	"gesmc/wire"
)

// tinyConfig shrinks every workload so the whole suite runs in seconds.
func tinyConfig(trace bool) config {
	return config{
		seed: 7, seconds: 300 * time.Millisecond, trace: trace, setups: 2,
		kernelNodes: 1 << 12,
		warmNodes:   1 << 9, warmSamples: 3,
		coldNodes: 1 << 8, coldArcs: 1 << 9, coldGraphs: 3, coldRequests: 3,
	}
}

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesDefinitions pins BENCHMARK.json to the metrics
// and workloads the program reports.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	bf := readBenchFile(t)
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], program has %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks the result line.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			rep := newReport(name, trace)
			if err := run(tinyConfig(trace), rep); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q",
					name, trace, res.Correct, res.Attempted, res.Failed, rep.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok || v.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, v, d.unit)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v.Value)
				}
			}
			if trace {
				hit := res.Metrics["service.pool_hit_ratio"].Value
				switch {
				case name == "serve-cold" && hit != 0:
					t.Errorf("serve-cold: pool hit ratio %v, want 0", hit)
				case name == "serve-warm" && hit != 1:
					t.Errorf("serve-warm: pool hit ratio %v, want 1", hit)
				}
			}
		}
	}
}

// TestFirstSampleDigestIsSeedFixed runs a workload twice with one seed:
// the printed digest of the first sample must match.
func TestFirstSampleDigestIsSeedFixed(t *testing.T) {
	digestNote := func() string {
		rep := newReport("kernel-large", false)
		if err := kernelLarge(tinyConfig(false), rep); err != nil {
			t.Fatal(err)
		}
		for _, n := range rep.notes {
			if strings.HasPrefix(n, "digest") {
				return n
			}
		}
		t.Fatal("no digest note")
		return ""
	}
	if a, b := digestNote(), digestNote(); a != b {
		t.Errorf("digest differs between runs: %q vs %q", a, b)
	}
}

// TestGateCountsCorruptedLines feeds consumeStream one good sample line
// and then corrupted variants, and checks each is counted as a failed
// operation under its cause.
func TestGateCountsCorruptedLines(t *testing.T) {
	g, err := gesmc.GenerateRegular(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := expectFor(g.N(), g.Edges(), false)
	good := wire.FromSample(gesmc.Sample{Graph: g, Stats: gesmc.Stats{Algorithm: "ParGlobalES"}})
	encode := func(ln wire.Line) []byte {
		var buf bytes.Buffer
		if err := wire.EncodeLine(&buf, ln); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if err := consumeStream(bytes.NewReader(encode(good)), e, 1, true, func(*lineObs) {}); err != nil {
		t.Fatalf("good line rejected: %v", err)
	}

	duplicate := good
	duplicate.Edges = slices.Clone(good.Edges)
	duplicate.Edges[1] = duplicate.Edges[0] // a multi-edge; also changes the degrees
	dropped := good
	dropped.Edges = good.Edges[1:] // still simple, but the degrees change
	grown := good
	grown.Nodes++ // an isolated extra node
	for _, c := range []struct {
		cause  string
		stream []byte
	}{
		{"gate", encode(duplicate)},
		{"gate", encode(dropped)},
		{"gate", encode(grown)},
		{"decode", []byte("{\"index\":0,\"edges\":[[0,\n")},
		{"in_band", encode(wire.Line{Index: 0, Error: "boom", Code: "internal"})},
		{"line_count", nil},
	} {
		rep := newReport("test", false)
		rep.ops.try()
		err := consumeStream(bytes.NewReader(c.stream), e, 1, false, func(*lineObs) {})
		var oe *opError
		if !errors.As(err, &oe) || oe.cause != c.cause {
			t.Errorf("%s: consumeStream = %v", c.cause, err)
			continue
		}
		fail(rep, err)
		if res := rep.result(); res.Correct || res.Failed != 1 || res.Attempted != 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", c.cause, res.Correct, res.Attempted, res.Failed)
		}
	}
}
