package core

import (
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/rng"
)

// TestParGlobalLargeWorkerIdentity asserts the bit-identity invariant
// at a size where the per-superstep permutation takes the parallel
// scatter path (m >= 2^12): the edge list after k supersteps must be
// byte-for-byte identical for every worker count.
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
	ref := base.Clone()
	if _, err := Run(ref.N(), ref.Edges(), AlgParGlobalES, 3, Config{Workers: 1, Seed: 404}); err != nil {
		t.Fatal(err)
	}
	want := ref.Edges()
	for _, workers := range []int{2, 4, 8} {
		g := base.Clone()
		if _, err := Run(g.N(), g.Edges(), AlgParGlobalES, 3, Config{Workers: workers, Seed: 404}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := g.Edges()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: edge list diverges from w=1 at index %d", workers, i)
			}
		}
	}
}
