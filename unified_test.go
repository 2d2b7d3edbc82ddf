package gesmc

import (
	"context"
	"testing"
)

// The unified-kernel guarantees at the public surface: every parallel
// chain accepts WithWorkers, populates the rounds instrumentation, and
// the trade chains are bit-identical for every worker count.

func collectEdges(t *testing.T, g *Graph, alg Algorithm, workers, steps int) [][2]uint32 {
	t.Helper()
	s, err := NewSampler(g.Clone(), WithAlgorithm(alg), WithWorkers(workers), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(steps); err != nil {
		t.Fatal(err)
	}
	edges := make([][2]uint32, 0)
	target := s.target.(*Graph)
	return append(edges, target.Edges()...)
}

// TestWorkerParityAllChains: every chain's result is bit-identical at
// every worker count.
func TestWorkerParityAllChains(t *testing.T) {
	g := GenerateGNP(160, 0.08, 6)
	for _, alg := range []Algorithm{SeqES, ParES, ParGlobalES, Curveball, GlobalCurveball} {
		var want [][2]uint32
		for _, w := range []int{1, 2, 4, 8} {
			s, err := NewSampler(g.Clone(), WithAlgorithm(alg), WithWorkers(w), WithSeed(33))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Step(4); err != nil {
				t.Fatal(err)
			}
			got := s.target.(*Graph).Edges()
			if want == nil {
				want = append([][2]uint32(nil), got...)
				s.Close()
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%v w=%d: edge count %d, want %d", alg, w, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v w=%d: edge list diverges at %d", alg, w, i)
				}
			}
			s.Close()
		}
	}
}

// TestWorkerParityDirected mirrors the parity check for the directed
// parallel chain.
func TestWorkerParityDirected(t *testing.T) {
	dg, err := FromBipartiteDegrees([]int{3, 2, 2, 1, 1, 1, 2}, []int{2, 2, 1, 2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]uint32
	for _, w := range []int{1, 2, 4} {
		s, err := NewSampler(dg.Clone(), WithAlgorithm(ParGlobalES), WithWorkers(w), WithSeed(8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(6); err != nil {
			t.Fatal(err)
		}
		got := s.target.(*DiGraph).Arcs()
		if want == nil {
			want = append([][2]uint32(nil), got...)
			s.Close()
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("w=%d: arc list diverges at %d", w, i)
			}
		}
		s.Close()
	}
}

// TestSamplerCloseThenTargetUsable: Close releases the gang but leaves
// the target's state intact and clonable.
func TestSamplerCloseThenTargetUsable(t *testing.T) {
	g := GenerateGNP(96, 0.1, 12)
	s, err := NewSampler(g, WithAlgorithm(ParGlobalES), WithWorkers(4), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	before := g.M()
	s.Close()
	if g.M() != before || g.Clone().M() != before {
		t.Fatal("target state damaged by Close")
	}
}

func TestCurveballWorkersBitIdentical(t *testing.T) {
	g := GenerateGNP(160, 0.08, 4)
	for _, alg := range []Algorithm{Curveball, GlobalCurveball} {
		var want [][2]uint32
		for _, w := range []int{1, 2, 4, 8} {
			got := collectEdges(t, g, alg, w, 10)
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: workers=%d diverges at edge %d", alg, w, i)
				}
			}
		}
	}
}

func TestGlobalCurveballWithWorkersIsValidAndInstrumented(t *testing.T) {
	// The acceptance criterion of the unified kernel: GlobalCurveball +
	// WithWorkers is a valid combination and reports the same RunStats
	// shape as the parallel switching chains.
	g := GenerateGNP(256, 0.06, 7)
	s, err := NewSampler(g, WithAlgorithm(GlobalCurveball), WithWorkers(4), WithSeed(3))
	if err != nil {
		t.Fatalf("GlobalCurveball with workers rejected: %v", err)
	}
	stats, err := s.Step(6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempted == 0 || stats.Accepted != stats.Attempted {
		t.Fatalf("trade accounting broken: %+v", stats)
	}
	if stats.AvgRounds < 1 {
		t.Fatalf("rounds instrumentation missing for the trade kernel: %+v", stats)
	}
	if err := s.target.(*Graph).CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestCurveballResumedSplitsBitIdentical(t *testing.T) {
	g := GenerateGNP(128, 0.1, 9)
	one, err := NewSampler(g.Clone(), WithAlgorithm(GlobalCurveball), WithWorkers(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Step(9); err != nil {
		t.Fatal(err)
	}
	split, err := NewSampler(g.Clone(), WithAlgorithm(GlobalCurveball), WithWorkers(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 0, 3} {
		if _, err := split.StepContext(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	a := one.target.(*Graph).Edges()
	b := split.target.(*Graph).Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed split diverges at edge %d", i)
		}
	}
	sa, sb := one.Stats(), split.Stats()
	if sa.Attempted != sb.Attempted || sa.Accepted != sb.Accepted {
		t.Fatalf("stats diverge: %+v vs %+v", sa, sb)
	}
}

func TestDirectedSamplerRoundTimesPopulated(t *testing.T) {
	// The directed runner now flows through the unified kernel, so the
	// first-round/later-rounds split (previously undirected-only)
	// reaches the public Stats for directed targets too.
	dg, err := FromInOutDegrees([]int{2, 2, 1, 1, 2}, []int{1, 2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(dg, WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Step(8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AvgRounds < 1 {
		t.Fatalf("directed rounds instrumentation missing: %+v", stats)
	}
}
