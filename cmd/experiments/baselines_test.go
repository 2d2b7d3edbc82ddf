package main

import (
	"fmt"
	"sort"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// checkInvariants fails unless g is simple with the given degrees.
func checkInvariants(t *testing.T, g *graph.Graph, want []int) {
	t.Helper()
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	for v, d := range g.Degrees() {
		if d != want[v] {
			t.Fatalf("degree of %d changed: %d -> %d", v, want[v], d)
		}
	}
}

func TestAdjBaselinesMatchSeqESExactly(t *testing.T) {
	// SeqES, AdjListES and AdjSortES consume randomness identically and
	// implement the identical chain, so for one seed all three must
	// produce bit-identical edge lists and acceptance counts.
	src := rng.NewMT19937(14)
	base := gen.GNP(100, 0.1, src)
	ref := base.Clone()
	rs, err := core.Run(ref.N(), ref.Edges(), core.AlgSeqES, 5, core.Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []baseline{adjListES, adjSortES} {
		g := base.Clone()
		st := runBaseline(g, b, 5, 31, 1)
		for i := range ref.Edges() {
			if g.Edges()[i] != ref.Edges()[i] {
				t.Fatalf("%v diverges from SeqES at edge %d", b, i)
			}
		}
		if st.attempted != rs.Attempted || st.legal != rs.Legal {
			t.Fatalf("%v accepted %d/%d, SeqES %d/%d", b, st.legal, st.attempted, rs.Legal, rs.Attempted)
		}
	}
}

func TestSeqESBucketSamplingInvariants(t *testing.T) {
	src := rng.NewMT19937(15)
	base := gen.GNP(128, 0.1, src)
	g := base.Clone()
	stats := runBaseline(g, seqESBuckets, 5, 3, 1)
	checkInvariants(t, g, base.Degrees())
	if stats.legal == 0 {
		t.Fatal("bucket sampling accepted nothing")
	}
}

// TestEngineBucketsResumable: the §5.3 bucket-sampling variant carries a
// position index across increments; make sure it stays consistent.
func TestEngineBucketsResumable(t *testing.T) {
	g := gen.GNP(256, 0.08, rng.NewMT19937(5))
	oneShot := g.Clone()
	runBaseline(oneShot, seqESBuckets, 8, 3, 1)
	split := g.Clone()
	c := newBaseline(split, seqESBuckets, 3, 1)
	var stats baselineStats
	for i := 0; i < 4; i++ {
		c.step(&stats)
		c.step(&stats)
		c.finish()
	}
	a, b := oneShot.Edges(), split.Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bucket-sampling chain diverges at %d", i)
		}
	}
	if err := split.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineNaiveWriteBack: NaiveParES buffers edges privately; the
// graph must hold the current state after every finished increment.
func TestEngineNaiveWriteBack(t *testing.T) {
	g := gen.GNP(256, 0.08, rng.NewMT19937(8))
	deg := g.Degrees()
	c := newBaseline(g, naiveParES, 2, 2)
	defer c.release()
	var stats baselineStats
	for i := 0; i < 3; i++ {
		c.step(&stats)
		c.finish()
		checkInvariants(t, g, deg)
	}
}

// With a single worker there are no races and every ticket acquisition
// succeeds, so NaiveParES degenerates to exact ES-MC (with different
// randomness but the same chain) — its stationary distribution over the
// 15 perfect matchings of K6 must be uniform too.
func TestNaiveParESUniformSingleWorker(t *testing.T) {
	base, err := graph.FromPairs(6, [][2]graph.Node{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3000
	counts := map[string]int{}
	for r := 0; r < runs; r++ {
		g := base.Clone()
		runBaseline(g, naiveParES, 20, uint64(r)*2654435761+17, 1)
		edges := append([]graph.Edge(nil), g.Edges()...)
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		counts[fmt.Sprint(edges)]++
	}
	if len(counts) != 15 {
		t.Fatalf("reached %d of 15 states", len(counts))
	}
	expected := float64(runs) / 15
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	if x2 > 60 {
		t.Fatalf("chi-square over states = %.1f (threshold 60, df=14)", x2)
	}
}

// Under real concurrency NaiveParES is inexact but must still preserve
// the hard invariants under stress: degrees, simplicity, and the
// consistency between the edge array and the concurrent set.
func TestNaiveParESStress(t *testing.T) {
	src := rng.NewMT19937(909)
	for _, build := range []func() *graph.Graph{
		func() *graph.Graph { g, _ := gen.SynPldGraph(512, 2.05, src); return g },
		func() *graph.Graph { return gen.GNP(256, 0.1, src) },
		func() *graph.Graph { g, _ := gen.Regular(256, 6); return g },
	} {
		g := build()
		if g == nil {
			t.Fatal("workload generation failed")
		}
		want := g.Degrees()
		stats := runBaseline(g, naiveParES, 8, 1, 8)
		checkInvariants(t, g, want)
		if stats.legal == 0 {
			t.Fatal("nothing accepted under contention")
		}
	}
}

// The worker cap: owner ids must fit the 8-bit lock byte.
func TestNaiveParESManyWorkers(t *testing.T) {
	g := gen.GNP(128, 0.2, rng.NewMT19937(910))
	runBaseline(g, naiveParES, 2, 2, 1000)
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

// Acceptance-rate comparison: on the same graph, NaiveParES under
// contention must accept at most as many switches as exact sequential
// ES-MC accepts on average (conflicts only ever add rejections).
func TestNaiveParESRejectsMoreThanExact(t *testing.T) {
	g := gen.GNP(128, 0.15, rng.NewMT19937(911))
	c := g.Clone()
	exact, err := core.Run(c.N(), c.Edges(), core.AlgSeqES, 10, core.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive := runBaseline(g.Clone(), naiveParES, 10, 3, 8)
	exactRate := float64(exact.Legal) / float64(exact.Attempted)
	naiveRate := float64(naive.legal) / float64(naive.attempted)
	if naiveRate > exactRate*1.05 {
		t.Fatalf("naive acceptance %.3f implausibly above exact %.3f", naiveRate, exactRate)
	}
}

// BenchmarkBaselines times the experiment-only chains of Table 4 on a
// power-law workload (the engine chains are benchmarked by the
// library's BenchmarkTable4).
func BenchmarkBaselines(b *testing.B) {
	g, err := gen.SynPldGraph(1<<14, 2.1, rng.NewMT19937(12345))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		b       baseline
		workers int
	}{{adjListES, 1}, {adjSortES, 1}, {naiveParES, 1}, {naiveParES, 4}} {
		b.Run(fmt.Sprintf("%v/P%d", c.b, c.workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runBaseline(g.Clone(), c.b, 20, 1, c.workers)
			}
			b.SetBytes(int64(g.M()) * 8 * 20)
		})
	}
}

// BenchmarkAblationSampling compares §5.3's two edge-sampling options in
// SeqES: the auxiliary edge array vs direct random-bucket probing.
func BenchmarkAblationSampling(b *testing.B) {
	g := gen.GNP(1<<13, 16.0/float64(1<<13), rng.NewMT19937(12345))
	b.Run("array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := g.Clone()
			if _, err := core.Run(c.N(), c.Edges(), core.AlgSeqES, 10, core.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("buckets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runBaseline(g.Clone(), seqESBuckets, 10, 1, 1)
		}
	})
}
