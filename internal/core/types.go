// Package core implements the switching Markov chains of the paper,
// generically over the edge encoding: one Engine[E] runs them for
// undirected edges (graph.Edge) and directed or bipartite arcs
// (digraph.Arc) alike.
//
//   - SeqES: fast sequential ES-MC (Definition 1) on an edge array plus
//     hash set (§5).
//   - SeqGlobalES: sequential G-ES-MC (Definition 3).
//   - ParES: the exact parallelization of ES-MC (Algorithm 2);
//     undirected edges only.
//   - ParGlobalES: the exact parallelization of G-ES-MC (Algorithm 3).
//
// The parallel chains run ParallelSuperstep (Algorithm 1) through the
// generic kernel in internal/switching. All implementations mutate the
// edge list in place and preserve both the degree sequence and
// simplicity. The parallel implementations are exact: given the same
// switch sequence they produce bit-identical edge lists to sequential
// Definition-1 execution (see switching.Runner for the one documented
// refinement over the paper's pseudocode). The paper's experiment-only
// baselines (NaiveParES, the adjacency-list chains, bucket-sampling
// SeqES) live with the experiment drivers in cmd/experiments.
package core

import (
	"context"
	"time"

	"gesmc/internal/constraint"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// Switch is one edge switch σ = (i, j, g): two edge-list indices and a
// direction bit (Definition 1). It is the kernel's switch type; core
// re-exports it so chain implementations and tests need not import the
// kernel package.
type Switch = switching.Switch

// Algorithm selects a Markov chain implementation.
type Algorithm int

const (
	// AlgSeqES is the sequential ES-MC implementation.
	AlgSeqES Algorithm = iota
	// AlgSeqGlobalES is the sequential G-ES-MC implementation.
	AlgSeqGlobalES
	// AlgParES is the exact parallel ES-MC (Algorithm 2).
	AlgParES
	// AlgParGlobalES is the exact parallel G-ES-MC (Algorithm 3).
	AlgParGlobalES
)

// String returns the implementation name used in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgSeqES:
		return "SeqES"
	case AlgSeqGlobalES:
		return "SeqGlobalES"
	case AlgParES:
		return "ParES"
	case AlgParGlobalES:
		return "ParGlobalES"
	default:
		return "unknown"
	}
}

// DefaultLoopProb is the default loop-rejection probability P_L of
// G-ES-MC (Definition 3). It only needs to be strictly positive for
// aperiodicity; a tiny value wastes almost no switches.
const DefaultLoopProb = 1e-6

// Config carries the tuning knobs shared by every chain and edge type.
type Config struct {
	// Workers is the number of goroutines for parallel algorithms
	// (P in the paper). Zero means 1.
	Workers int
	// Seed seeds all randomness; runs are deterministic per
	// (algorithm, graph, seed, workers).
	Seed uint64
	// LoopProb is P_L of G-ES-MC. Zero selects DefaultLoopProb.
	LoopProb float64
	// PessimisticRounds makes ParallelSuperstep publish decisions only
	// at round barriers, simulating the worst-case scheduler analyzed
	// in Theorems 2-3. Results are identical; only round counts change.
	// Use for round-count experiments (Fig. 9) on machines where the
	// natural scheduler resolves everything in one round.
	PessimisticRounds bool
	// Constraint restricts the chain's state space (see the constraint
	// package): local vetoes run inside the decide phase, connectivity
	// (weak connectivity for arcs) via certificate +
	// speculate-then-recertify. Every algorithm supports it. Nil or a
	// spec with nothing active constrains nothing.
	Constraint *constraint.Spec
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) loopProb() float64 {
	if c.LoopProb <= 0 {
		return DefaultLoopProb
	}
	return c.LoopProb
}

// RunStats aggregates what happened during a run.
type RunStats struct {
	Algorithm  Algorithm
	Supersteps int   // supersteps performed (per paper's definition)
	Attempted  int64 // switches attempted
	Legal      int64 // switches accepted (graph modified)

	// Parallel superstep instrumentation (Fig. 9):
	InternalSupersteps int           // ParallelSuperstep invocations
	TotalRounds        int64         // rounds across all supersteps
	MaxRounds          int           // largest round count of any superstep
	FirstRoundTime     time.Duration // time spent in first rounds
	LaterRoundsTime    time.Duration // time spent in rounds 2+

	// Constraint instrumentation (zero without an active constraint):
	Vetoed         int64 // switches rejected by the constraint layer (vetoes + rollbacks)
	EscapeAttempts int64 // compound k-switch escape proposals
	EscapeMoves    int64 // accepted escape moves

	Duration time.Duration
}

// RejectionRate returns the fraction of attempted switches rejected.
func (s *RunStats) RejectionRate() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return 1 - float64(s.Legal)/float64(s.Attempted)
}

// AvgRounds returns the mean rounds per ParallelSuperstep invocation.
func (s *RunStats) AvgRounds() float64 {
	if s.InternalSupersteps == 0 {
		return 0
	}
	return float64(s.TotalRounds) / float64(s.InternalSupersteps)
}

// SampleSwitches draws r uniform ES-MC switches for a graph with m
// edges: i != j uniform indices plus an unbiased direction bit.
func SampleSwitches(m int, r int, src rng.Source) []Switch {
	if m < 2 {
		return nil
	}
	out := make([]Switch, r)
	for k := range out {
		i, j := rng.TwoDistinct(src, m)
		out[k] = Switch{I: uint32(i), J: uint32(j), G: rng.Bool(src)}
	}
	return out
}

// GlobalSwitches converts a permutation prefix into the switch sequence
// of a global switch Γ = (π, ℓ): σ_k = (π(2k−1), π(2k), 1_{π(2k−1)<π(2k)})
// (Definition 3, 1-based; here 0-based pairs).
func GlobalSwitches(perm []uint32, l int, buf []Switch) []Switch {
	buf = buf[:0]
	for k := 0; k < l; k++ {
		i, j := perm[2*k], perm[2*k+1]
		buf = append(buf, Switch{I: i, J: j, G: i < j})
	}
	return buf
}

// SampleGlobalSwitch draws a full global switch: a uniform permutation of
// [m] and ℓ ~ Binom(⌊m/2⌋, 1−P_L).
func SampleGlobalSwitch(m int, loopProb float64, src rng.Source) ([]uint32, int) {
	perm := rng.Perm(src, m)
	l := int(rng.BinomialComplementSmall(src, int64(m/2), loopProb))
	return perm, l
}

// Run executes the selected algorithm on the edge list of a graph with
// n nodes for the given number of supersteps (one superstep = ⌊m/2⌋
// switch attempts for ES-MC chains, one global switch for G-ES-MC
// chains, matching §6.1's normalization) and returns statistics. The
// edges are randomized in place. Run is the one-shot form of NewEngine
// + Steps; callers that draw many samples from one graph should hold on
// to an Engine instead so the edge-set state is built only once.
func Run[E switching.EdgeKind[E]](n int, edges []E, alg Algorithm, supersteps int, cfg Config) (*RunStats, error) {
	start := time.Now()
	e, err := NewEngine(n, edges, alg, cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	stats, err := e.Steps(context.Background(), supersteps)
	if err != nil {
		return nil, err
	}
	stats.Duration = time.Since(start)
	return &stats, nil
}
