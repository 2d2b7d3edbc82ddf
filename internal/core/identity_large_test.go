package core

import (
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/rng"
)

// TestParGlobalLargeWorkerIdentity asserts the bit-identity invariant
// at a size where the per-superstep permutation takes the parallel
// scatter path (m >= 2^12): the edge list after k supersteps must be
// byte-for-byte identical for every worker count and prefetch setting.
// The small differential suites hold this invariant below the scatter
// cutoff; this test pins it where the permutation, the fused phase
// dispatches, and the dynamic chunking actually run multi-worker code
// paths. It would have caught any worker-count dependence in the
// permutation generator.
func TestParGlobalLargeWorkerIdentity(t *testing.T) {
	src := rng.NewMT19937(5150)
	base, err := gen.SynPldGraph(1<<12, 2.0, src)
	if err != nil {
		t.Fatal(err)
	}
	if base.M() < 1<<12 {
		t.Fatalf("graph below scatter cutoff: m=%d", base.M())
	}
	type variant struct {
		workers  int
		prefetch bool
	}
	ref := base.Clone()
	if _, err := Run(ref.N(), ref.Edges(), AlgParGlobalES, 3, Config{Workers: 1, Seed: 404}); err != nil {
		t.Fatal(err)
	}
	want := ref.Edges()
	for _, v := range []variant{{2, false}, {4, false}, {8, false}, {4, true}} {
		g := base.Clone()
		_, err := Run(g.N(), g.Edges(), AlgParGlobalES, 3, Config{
			Workers: v.workers, Seed: 404, Prefetch: v.prefetch,
		})
		if err != nil {
			t.Fatalf("workers=%d prefetch=%v: %v", v.workers, v.prefetch, err)
		}
		got := g.Edges()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d prefetch=%v: edge list diverges from w=1 at index %d",
					v.workers, v.prefetch, i)
			}
		}
	}
}
