package digraph

import (
	"context"
	"errors"
	"testing"

	"gesmc/internal/constraint"
	"gesmc/internal/core"
	"gesmc/internal/graph"
)

// dirCycle builds the directed n-cycle 0->1->...->n-1->0 with a few
// extra chords, weakly connected with plenty of near-bridges.
func dirCycle(t *testing.T, n int) *DiGraph {
	t.Helper()
	var pairs [][2]graph.Node
	for v := 0; v < n; v++ {
		pairs = append(pairs, [2]graph.Node{graph.Node(v), graph.Node((v + 1) % n)})
	}
	pairs = append(pairs, [2]graph.Node{0, graph.Node(n / 2)})
	g, err := FromPairs(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWeakComponents(t *testing.T) {
	// Two directed triangles, no connection: 2 weak components.
	g, err := FromPairs(6, [][2]graph.Node{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, labels := ConnectedComponents(g)
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if labels[0] != labels[1] || labels[0] == labels[3] {
		t.Fatalf("labels = %v", labels)
	}
	// Orientation must not matter: a path 0->1<-2 is weakly connected.
	p, err := FromPairs(3, [][2]graph.Node{{0, 1}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ConnectedComponents(p); n != 1 {
		t.Fatalf("anti-oriented path: %d weak components", n)
	}
}

func TestDirectedConstraintDisconnectedTarget(t *testing.T) {
	g, err := FromPairs(6, [][2]graph.Node{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	spec := &constraint.Spec{Connected: true}
	for _, alg := range []core.Algorithm{core.AlgSeqES, core.AlgSeqGlobalES, core.AlgParGlobalES} {
		if _, err := newEngine(g.Clone(), alg, core.Config{Constraint: spec}); !errors.Is(err, core.ErrDisconnected) {
			t.Fatalf("%v: err = %v, want ErrDisconnected", alg, err)
		}
	}
}

// TestDirectedConnectedInvariants: every post-superstep state stays
// weakly connected, simple, and in/out-degree-preserving for all three
// chains at workers {1, 2, 4, 8}; runs are deterministic per (seed,
// workers); and ParGlobalES is worker-count invariant.
func TestDirectedConnectedInvariants(t *testing.T) {
	base := dirCycle(t, 14)
	wantOut, wantIn := base.Degrees()
	spec := func() *constraint.Spec { return &constraint.Spec{Connected: true} }

	var ref []Arc
	for _, alg := range []core.Algorithm{core.AlgSeqES, core.AlgSeqGlobalES, core.AlgParGlobalES} {
		for _, w := range []int{1, 2, 4, 8} {
			if alg != core.AlgParGlobalES && w > 1 {
				continue
			}
			g := base.Clone()
			eng, err := newEngine(g, alg, core.Config{Workers: w, Seed: 11, Constraint: spec()})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 8; s++ {
				if _, err := eng.Steps(context.Background(), 1); err != nil {
					t.Fatal(err)
				}
				if c, _ := ConnectedComponents(g); c != 1 {
					t.Fatalf("%v w=%d superstep %d: weakly disconnected", alg, w, s)
				}
				if err := g.CheckSimple(); err != nil {
					t.Fatalf("%v w=%d superstep %d: %v", alg, w, s, err)
				}
			}
			out, in := g.Degrees()
			for v := range out {
				if out[v] != wantOut[v] || in[v] != wantIn[v] {
					t.Fatalf("%v w=%d: degrees of %d changed", alg, w, v)
				}
			}
			eng.Close()
			if alg == core.AlgParGlobalES {
				if w == 1 {
					ref = append([]Arc(nil), g.Arcs()...)
				} else {
					for i := range ref {
						if g.Arcs()[i] != ref[i] {
							t.Fatalf("ParGlobalES w=%d: arc %d differs from w=1", w, i)
						}
					}
				}
			}
		}
	}
}

// TestDirectedForbiddenArcs: a local forbidden-arc constraint holds in
// every sampled state and is worker-count invariant.
func TestDirectedForbiddenArcs(t *testing.T) {
	base := dirCycle(t, 12)
	forbidden := []Arc{MakeArc(0, 5), MakeArc(3, 9), MakeArc(7, 2)}
	spec := func() *constraint.Spec {
		packed := make([]uint64, len(forbidden))
		for i, a := range forbidden {
			packed[i] = uint64(a)
		}
		return &constraint.Spec{Locals: []constraint.Local{constraint.NewForbidden(packed)}}
	}
	var ref []Arc
	var refVetoed int64
	for _, w := range []int{1, 2, 4, 8} {
		g := base.Clone()
		eng, err := newEngine(g, core.AlgParGlobalES, core.Config{Workers: w, Seed: 2, Constraint: spec()})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Steps(context.Background(), 12)
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		for _, a := range g.Arcs() {
			for _, f := range forbidden {
				if a == f {
					t.Fatalf("w=%d: forbidden arc %v present", w, a)
				}
			}
		}
		if w == 1 {
			ref = append([]Arc(nil), g.Arcs()...)
			refVetoed = stats.Vetoed
			if stats.Vetoed == 0 {
				t.Fatal("no vetoes fired; constraint untested")
			}
			continue
		}
		if stats.Vetoed != refVetoed {
			t.Fatalf("w=%d: vetoed %d != %d at w=1", w, stats.Vetoed, refVetoed)
		}
		for i := range ref {
			if g.Arcs()[i] != ref[i] {
				t.Fatalf("w=%d: arc %d differs from w=1", w, i)
			}
		}
	}
}
