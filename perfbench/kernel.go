package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gesmc"
	"gesmc/internal/conc"
	"gesmc/internal/rng"
)

// kernelLarge is the paper's setting: one caller drives ParGlobalES at
// kernelWorkers through the public Sampler API on a power-law graph
// whose working set is far larger than L2. Compile, service and wire
// are bypassed; the kernel does the work.
func kernelLarge(cfg config, rep *report) error {
	r := newRand(cfg.seed, 1)
	n := cfg.kernelNodes
	edges := erasedConfiguration(powerLawDegrees(n, 2.2, r), r)
	wantDeg, _ := degreesOf(n, edges, false)
	text := edgeListText(n, edges)
	chainSeed := r.Uint64()
	rep.notef("input: power-law gamma=2.2 n=%d m=%d, %d bytes of edge-list text, chain seed %d, workers=%d",
		n, len(edges), len(text), chainSeed, kernelWorkers)

	// Set-up, repeated: ReadGraph, NewSampler, warm-up supersteps. Every
	// repetition must reach the same chain state. The first Step call
	// after each set-up is timed on its own: it is the first sample.
	var (
		g        *gesmc.Graph
		s        *gesmc.Sampler
		setup    []float64
		readMs   []float64
		compMs   []float64
		firstMs  []float64
		firstDig uint64
	)
	for i := range cfg.setups {
		if s != nil {
			s.Close()
			s, g = nil, nil
			runtime.GC()
		}
		rep.ops.try()
		t0 := time.Now()
		var err error
		if g, err = gesmc.ReadGraph(bytes.NewReader(text)); err != nil {
			return fmt.Errorf("kernel-large: ReadGraph: %w", err)
		}
		t1 := time.Now()
		s, err = gesmc.NewSampler(g, gesmc.WithAlgorithm(gesmc.ParGlobalES),
			gesmc.WithWorkers(kernelWorkers), gesmc.WithSeed(chainSeed))
		if err != nil {
			return fmt.Errorf("kernel-large: NewSampler: %w", err)
		}
		t2 := time.Now()
		if _, err := s.Step(kernelWarmup); err != nil {
			return fmt.Errorf("kernel-large: warm-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		readMs = append(readMs, msSince(t0, t1))
		compMs = append(compMs, msSince(t1, t2))
		d := digest(n, g.Edges(), false)
		if i == 0 {
			firstDig = d
			rep.notef("digest of the first sample (chain after warm-up): %016x", d)
		} else if d != firstDig {
			rep.ops.fail("digest")
		}
		rep.ops.try()
		t3 := time.Now()
		if _, err := s.Step(kernelStepsPerCall); err != nil {
			rep.ops.fail("step")
			return fmt.Errorf("kernel-large: Step: %w", err)
		}
		firstMs = append(firstMs, msSince(t3, time.Now()))
	}
	defer s.Close()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	rep.workingSet(heap.HeapInuse)

	// Timed phase: closed loop of Step calls. Superstep times on this graph
	// tend to alternate between a shorter and a longer superstep, so each
	// call advances an even number of them.
	lat, attempted, elapsed, err := kernelLoop(s, kernelStepsPerCall, cfg.phase(), &rep.ops)
	if err != nil {
		return err
	}
	rate := float64(attempted) / elapsed.Seconds()
	rep.set("switches_per_s", rate)
	rep.set("samples_per_s", float64(len(lat))/elapsed.Seconds())
	rep.set("first_sample_ms_p50", median(firstMs))
	rep.set("first_sample_ms_p90", percentile(firstMs, 0.9))
	rep.set("sample_gap_ms_p50", median(lat))
	rep.set("sample_gap_ms_p90", percentile(lat, 0.9))
	rep.set("setup_s", median(setup))
	rep.observations("Step calls", len(lat))
	rep.notef("observations: %d first Step calls, one after each set-up", len(firstMs))

	if cfg.trace {
		if err := traceKernelLarge(cfg, rep, s, g, rate); err != nil {
			return err
		}
		rep.set("gesmc.read_graph_ms", median(readMs))
		rep.set("gesmc.compile_ms", median(compMs))
	}

	// Correctness gate on the final chain state.
	if err := checkGraph(g, n, wantDeg); err != nil {
		rep.ops.fail("gate")
		rep.notef("gate: %v", err)
	}
	return setPeakRSS(rep)
}

// kernelLoop calls s.Step(k) until d has passed and returns each call's
// latency in ms, the total switches attempted and the wall time.
func kernelLoop(s *gesmc.Sampler, k int, d time.Duration, o *ops) ([]float64, int64, time.Duration, error) {
	var lat []float64
	var attempted int64
	start := time.Now()
	for time.Since(start) < d {
		o.try()
		t := time.Now()
		st, err := s.Step(k)
		if err != nil {
			o.fail("step")
			return nil, 0, 0, fmt.Errorf("kernel-large: Step: %w", err)
		}
		lat = append(lat, msSince(t, time.Now()))
		attempted += st.Attempted
	}
	return lat, attempted, time.Since(start), nil
}

// traceKernelLarge repeats the timed phase with every superstep timed
// and its allocations counted, then probes the permutation generator and
// the sequential chain on the same graph.
func traceKernelLarge(cfg config, rep *report, s *gesmc.Sampler, g *gesmc.Graph, untraced float64) error {
	var (
		kern    kernelAcc
		superMs []float64
		allocs  uint64
		ms      runtime.MemStats
	)
	rt := startRuntimeWatch()
	start := time.Now()
	for time.Since(start) < cfg.phase() {
		for range kernelStepsPerCall {
			rep.ops.try()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			t := time.Now()
			st, err := s.Step(1)
			superMs = append(superMs, msSince(t, time.Now()))
			runtime.ReadMemStats(&ms)
			allocs += ms.Mallocs - before
			rt.sample(&ms)
			if err != nil {
				rep.ops.fail("step")
				return fmt.Errorf("kernel-large: Step: %w", err)
			}
			kern.addStats(st)
		}
	}
	wall := time.Since(start)
	rt.finish(rep)
	kern.report(rep)
	rep.set("kernel.allocs_per_superstep", float64(allocs)/float64(len(superMs)))
	rep.set("kernel.superstep_ms_p50", median(superMs))
	rep.set("kernel.superstep_ms_p90", percentile(superMs, 0.9))
	rep.set("trace.overhead_ratio", ratio(untraced, float64(kern.attempted)/wall.Seconds()))
	var stepped float64
	for _, x := range superMs {
		stepped += x
	}
	rep.set("trace.wall_covered_share", stepped/(float64(wall.Nanoseconds())/1e6))

	m := g.M()
	rep.set("rng.perm_ms", permMs(m, kernelWorkers))
	rep.set("gesmc.snapshot_ms", snapshotMs(func() { g.Clone() }))
	seq, err := seqNsPerSwitch(g.Clone(), seqSteps)
	if err != nil {
		return fmt.Errorf("kernel-large: sequential chain: %w", err)
	}
	rep.set("engine.seq_ns_per_switch", seq)
	rep.set("engine.speedup_vs_seq", ratio(seq, kern.nsPerSwitch()))
	return nil
}

// kernelAcc merges per-call kernel statistics, from gesmc.Stats or their
// wire form.
type kernelAcc struct {
	supersteps, maxRounds        int
	attempted, accepted          int64
	rounds                       float64 // Σ AvgRounds × supersteps
	firstNS, laterNS, durationNS int64
}

func (k *kernelAcc) add(supersteps int, attempted, accepted int64, avgRounds float64, maxRounds int, firstNS, laterNS, durationNS int64) {
	k.supersteps += supersteps
	k.attempted += attempted
	k.accepted += accepted
	k.rounds += avgRounds * float64(supersteps)
	k.maxRounds = max(k.maxRounds, maxRounds)
	k.firstNS += firstNS
	k.laterNS += laterNS
	k.durationNS += durationNS
}

func (k *kernelAcc) addStats(st gesmc.Stats) {
	k.add(st.Supersteps, st.Attempted, st.Accepted, st.AvgRounds, st.MaxRounds,
		st.FirstRoundTime.Nanoseconds(), st.LaterRoundsTime.Nanoseconds(), st.Duration.Nanoseconds())
}

func (k *kernelAcc) nsPerSwitch() float64 { return ratio(float64(k.durationNS), float64(k.attempted)) }

func (k *kernelAcc) report(rep *report) {
	rep.set("kernel.ns_per_switch", k.nsPerSwitch())
	rep.set("kernel.rounds_avg", ratio(k.rounds, float64(k.supersteps)))
	rep.set("kernel.rounds_max", float64(k.maxRounds))
	rep.set("kernel.first_round_share", ratio(float64(k.firstNS), float64(k.firstNS+k.laterNS)))
	rep.set("kernel.accept_ratio", ratio(float64(k.accepted), float64(k.attempted)))
}

// permMs is the median time of one PermGen.Generate of size m, on a gang
// of the given size as the kernel runs it.
func permMs(m, workers int) float64 {
	pg := rng.NewPermGen(m)
	var dispatch rng.Dispatch
	if workers > 1 {
		pool := conc.NewPool(workers)
		defer pool.Close()
		dispatch = pool.Blocks
	}
	var xs []float64
	for i := range 9 {
		t := time.Now()
		pg.Generate(uint64(i), dispatch)
		xs = append(xs, msSince(t, time.Now()))
	}
	return median(xs)
}

// snapshotMs is the median time of one graph snapshot (Clone).
func snapshotMs(clone func()) float64 {
	var xs []float64
	for range 9 {
		t := time.Now()
		clone()
		xs = append(xs, msSince(t, time.Now()))
	}
	return median(xs)
}

// seqNsPerSwitch runs the sequential G-ES-MC (the paper's baseline) for
// steps supersteps on t and returns its ns per switch.
func seqNsPerSwitch(t gesmc.Target, steps int) (float64, error) {
	s, err := gesmc.NewSampler(t, gesmc.WithAlgorithm(gesmc.SeqGlobalES), gesmc.WithSeed(1))
	if err != nil {
		return 0, err
	}
	defer s.Close()
	st, err := s.Step(steps)
	if err != nil {
		return 0, err
	}
	return ratio(float64(st.Duration.Nanoseconds()), float64(st.Attempted)), nil
}

// checkGraph is the correctness gate on an undirected chain state: a
// simple graph on n nodes with the target's degree sequence.
func checkGraph(g *gesmc.Graph, n int, deg []int) error {
	if g.N() != n {
		return fmt.Errorf("node count %d, want %d", g.N(), n)
	}
	if err := g.CheckSimple(); err != nil {
		return err
	}
	if !slices.Equal(g.Degrees(), deg) {
		return fmt.Errorf("degree sequence changed")
	}
	return nil
}
