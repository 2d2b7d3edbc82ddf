package switching_test

import (
	"fmt"
	"runtime"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// globalSwitchStep builds one full global-switch superstep (⌊m/2⌋
// source-independent switches from a fresh permutation).
func globalSwitchStep(m int, src rng.Source) []switching.Switch {
	perm := rng.Perm(src, m)
	out := make([]switching.Switch, 0, m/2)
	for k := 0; k+1 < m; k += 2 {
		i, j := perm[k], perm[k+1]
		out = append(out, switching.Switch{I: i, J: j, G: i < j})
	}
	return out
}

// TestRunnerSuperstepAllocs is the allocation-regression gate of the
// gang-scheduled kernel: after warm-up (scratch grown, compaction path
// exercised), a superstep must perform (almost) no heap allocations —
// the phase bodies, driver hooks, and pool dispatches are all
// persistent. The bound of 1 tolerates rare runtime-internal
// allocations (e.g. a goroutine stack growth); the historical
// spawn-per-phase kernel sat at ~15+ per superstep before counting
// goroutine churn.
func TestRunnerSuperstepAllocs(t *testing.T) {
	src := rng.NewMT19937(1234)
	g, err := gen.SynPldGraph(1<<12, 2.2, src)
	if err != nil {
		t.Fatal(err)
	}
	m := g.M()
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			E := append([]graph.Edge(nil), g.Edges()...)
			r := switching.NewRunner(E, m/2, workers)
			defer r.Release()
			// Warm up: grows the undecided list, the per-worker
			// delay buffers, and the compaction scratch, and lets
			// worker stacks reach steady state.
			for i := 0; i < 6; i++ {
				r.Run(globalSwitchStep(m, src))
			}
			switches := globalSwitchStep(m, src)
			allocs := testing.AllocsPerRun(10, func() {
				r.Run(switches)
			})
			if allocs > 1 {
				t.Fatalf("superstep allocates %.1f objects in steady state, want ~0", allocs)
			}
		})
	}
}

// TestRunnerWorkerParity asserts the kernel's worker-count invariance:
// for every gang size, the decided edge list and accepted count equal
// the 1-worker run's.
func TestRunnerWorkerParity(t *testing.T) {
	src := rng.NewMT19937(4321)
	for trial := 0; trial < 10; trial++ {
		g := gen.GNP(16+rng.IntN(src, 48), 0.2, src)
		if g.M() < 4 {
			continue
		}
		switches := globalBatch(g.M(), src)
		base := append([]graph.Edge(nil), g.Edges()...)
		r0 := switching.NewRunner(base, maxi(len(switches), 1), 1)
		r0.Run(switches)
		r0.Release()
		for _, w := range []int{1, 2, 4, 8} {
			E := append([]graph.Edge(nil), g.Edges()...)
			r := switching.NewRunner(E, maxi(len(switches), 1), w)
			r.Run(switches)
			if r.Legal != r0.Legal {
				t.Fatalf("workers=%d: accepted %d, want %d", w, r.Legal, r0.Legal)
			}
			for i := range base {
				if E[i] != base[i] {
					t.Fatalf("workers=%d: edge list diverges at %d", w, i)
				}
			}
			r.Release()
		}
	}
}

// TestRunnerReleaseAndRecreate exercises the engine lifecycle: many
// runners created and released in sequence must not accumulate parked
// goroutines.
func TestRunnerReleaseAndRecreate(t *testing.T) {
	src := rng.NewMT19937(777)
	g := gen.GNP(64, 0.2, src)
	switches := globalBatch(g.M(), src)
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		E := append([]graph.Edge(nil), g.Edges()...)
		r := switching.NewRunner(E, maxi(len(switches), 1), 4)
		r.Run(switches)
		r.Release()
	}
	// Workers exit asynchronously after the close; poll briefly.
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutines grew from %d to %d across released runners", before, runtime.NumGoroutine())
}
