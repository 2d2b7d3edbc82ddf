package core

import (
	"fmt"
	"testing"

	"gesmc/internal/conc"
	"gesmc/internal/digraph"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// TestPrefetchVariantIdenticalResults drives the plain and the
// pipelined (bucket pre-touch) sequential executor on one switch
// sequence: touching buckets must not change any decision, for
// undirected edges and arcs alike.
func TestPrefetchVariantIdenticalResults(t *testing.T) {
	src := rng.NewMT19937(16)
	g := gen.GNP(200, 0.05, src)
	arcs := make([]digraph.Arc, g.M())
	for i, e := range g.Edges() {
		u, v := e.Endpoints()
		if rng.Bool(src) {
			u, v = v, u
		}
		arcs[i] = digraph.MakeArc(u, v)
	}
	// 20 switches per edge, plus a tail shorter than the pipeline depth.
	checkExecutorsAgree(t, g.Edges(), SampleSwitches(g.M(), 20*g.M()+pipelineDepth-1, src))
	checkExecutorsAgree(t, arcs, SampleSwitches(len(arcs), 20*len(arcs)+pipelineDepth-1, src))
}

func checkExecutorsAgree[E switching.EdgeKind[E]](t *testing.T, base []E, switches []Switch) {
	t.Helper()
	plain := append([]E(nil), base...)
	piped := append([]E(nil), base...)
	want := ExecuteSequential(plain, newEdgeSet(plain), switches)
	got := executeSequentialPipelined(piped, newEdgeSet(piped), switches)
	if want == 0 {
		t.Fatalf("directed=%v: no switch accepted; the comparison is vacuous", E(0).Directed())
	}
	if got != want {
		t.Fatalf("directed=%v: pipelined executor accepted %d switches, plain %d", E(0).Directed(), got, want)
	}
	for i := range plain {
		if piped[i] != plain[i] {
			t.Fatalf("directed=%v: edge lists diverge at %d: %v vs %v", E(0).Directed(), i, piped[i], plain[i])
		}
	}
}

// TestSeqPipelineThreshold pins the selection rule: the pipelined
// executor runs exactly when the hash set (8 bytes per bucket) is at
// least the per-core L2 size.
func TestSeqPipelineThreshold(t *testing.T) {
	for _, l2 := range []int{256 << 10, 2 << 20} {
		buckets := l2 / 8
		if pipelined(buckets/2, l2) {
			t.Errorf("L2=%d: a set of half the L2 size is pipelined", l2)
		}
		if pipelined(buckets-1, l2) {
			t.Errorf("L2=%d: a set just below the L2 size is pipelined", l2)
		}
		if !pipelined(buckets, l2) {
			t.Errorf("L2=%d: a set of the L2 size is not pipelined", l2)
		}
		if !pipelined(2*buckets, l2) {
			t.Errorf("L2=%d: a set of twice the L2 size is not pipelined", l2)
		}
	}
	// The sequential chains apply the rule to their own set and the
	// detected L2.
	l2 := conc.Topology().L2Bytes
	if l2 > 8<<20 {
		t.Skipf("L2 of %d bytes: a set above it is too large for a unit test", l2)
	}
	for _, c := range []struct {
		m    int
		want bool
	}{{16, false}, {l2 / 8, true}} {
		edges := make([]graph.Edge, c.m)
		for i := range edges {
			edges[i] = graph.MakeEdge(graph.Node(i), graph.Node(i+1))
		}
		if x := newSeqExec(edges, Config{}, nil); x.pipelined != c.want {
			t.Errorf("m=%d (%d buckets, L2=%d): pipelined=%v, want %v", c.m, x.S.Buckets(), l2, x.pipelined, c.want)
		}
	}
}

// BenchmarkSeqExecutor compares the plain and the pipelined sequential
// executor (the §5.4 pre-touch comparison of Figure 5) on one global
// switch per op, on power-law graphs whose hash sets lie below
// (m ≈ 15k, 256 KiB) and above (m ≈ 250k, 4 MiB) a typical L2.
func BenchmarkSeqExecutor(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 18} {
		src := rng.NewMT19937(7)
		g, err := gen.SynPldGraph(n, 2.5, src)
		if err != nil {
			b.Fatal(err)
		}
		perm, l := SampleGlobalSwitch(g.M(), DefaultLoopProb, src)
		switches := GlobalSwitches(perm, l, nil)
		for _, ex := range []struct {
			name string
			run  func([]graph.Edge, *hashset.Set, []Switch) int64
		}{
			{"plain", ExecuteSequential[graph.Edge]},
			{"pipelined", executeSequentialPipelined[graph.Edge]},
		} {
			b.Run(fmt.Sprintf("m=%d/%s", g.M(), ex.name), func(b *testing.B) {
				E := append([]graph.Edge(nil), g.Edges()...)
				S := newEdgeSet(E)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ex.run(E, S, switches)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(switches)), "ns/switch")
			})
		}
	}
}
