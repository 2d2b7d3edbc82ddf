package digraph

import (
	"context"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/rng"
)

// replayParGlobalSequentially reproduces the exact switch sequence the
// parallel directed G-ES-MC engine draws for a given (seed, workers)
// pair — ParallelPerm seeds from the SplitMix64 stream, ℓ from the
// MT19937 stream — and executes it with the sequential
// reference. This is the ground truth the parallel engine must hit
// bit-identically.
func replayParGlobalSequentially(g *DiGraph, supersteps, workers int, loopProb float64, seed uint64) *DiGraph {
	c := g.Clone()
	A := c.Arcs()
	S := arcSet(c)
	m := c.M()
	src := rng.NewMT19937(seed)
	seedSrc := rng.NewSplitMix64(seed ^ 0x5DEECE66D)
	var buf []core.Switch
	for step := 0; step < supersteps; step++ {
		perm := rng.ParallelPerm(seedSrc.Uint64(), m, workers)
		l := int(rng.BinomialComplementSmall(src, int64(m/2), loopProb))
		buf = core.GlobalSwitches(perm, l, buf)
		core.ExecuteSequential(A, S, buf)
	}
	return c
}

func TestDirectedParGlobalBitIdenticalAcrossWorkers(t *testing.T) {
	// For every worker count, the parallel engine must reproduce the
	// sequential reference executing the same switch stream. (Different
	// worker counts draw different parallel permutations, so each w is
	// checked against its own replay.)
	src := rng.NewMT19937(8701)
	g := randomDigraph(72, 0.12, src)
	const supersteps = 8
	const pl = 0.01
	const seed = 42
	for _, w := range []int{1, 2, 4, 8} {
		want := replayParGlobalSequentially(g, supersteps, w, pl, seed)
		got := g.Clone()
		if _, err := run(got, core.AlgParGlobalES, supersteps, core.Config{Workers: w, LoopProb: pl, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		for i := range want.Arcs() {
			if want.Arcs()[i] != got.Arcs()[i] {
				t.Fatalf("workers=%d: arc %d diverges from sequential replay", w, i)
			}
		}
	}
}

func TestDirectedEngineResumedSplitsBitIdentical(t *testing.T) {
	// Splitting the same superstep budget across Steps calls must not
	// change the trajectory.
	src := rng.NewMT19937(8702)
	g := randomDigraph(64, 0.12, src)
	cfg := core.Config{Workers: 4, Seed: 9, LoopProb: 0.01}

	oneShot := g.Clone()
	e1, err := newEngine(oneShot, core.AlgParGlobalES, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Steps(context.Background(), 10); err != nil {
		t.Fatal(err)
	}

	split := g.Clone()
	e2, err := newEngine(split, core.AlgParGlobalES, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 0, 4, 2} {
		if _, err := e2.Steps(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}

	for i := range oneShot.Arcs() {
		if oneShot.Arcs()[i] != split.Arcs()[i] {
			t.Fatalf("resumed split diverges at arc %d", i)
		}
	}
	s1, s2 := e1.Stats(), e2.Stats()
	if s1.Legal != s2.Legal || s1.Attempted != s2.Attempted || s1.Supersteps != s2.Supersteps {
		t.Fatalf("stats diverge: one-shot %+v, split %+v", s1, s2)
	}
}
