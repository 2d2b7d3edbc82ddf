package core

import (
	"context"
	"errors"
	"time"

	"gesmc/internal/constraint"
	"gesmc/internal/switching"
)

// ErrUnknownAlgorithm is returned by NewEngine for an Algorithm value
// outside the defined enum.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// ErrUnsupportedAlgorithm is returned by NewEngine for ParES over
// directed arcs, the one combination the engine does not run.
var ErrUnsupportedAlgorithm = errors.New("core: algorithm not supported for directed arcs")

// class holds the per-edge-type conventions that fix how a chain turns
// its seed into switches. None of them is a tuning knob: each one
// reproduces what that target class has always done, so seed-fixed
// outputs stay bit-identical.
type class struct {
	// directionBit makes ES-MC chains draw rng.Bool for every switch.
	// Directed switches have no direction bit and draw nothing.
	directionBit bool
	// permSalt is XORed into the seed of ParGlobalES's
	// permutation-seed stream.
	permSalt uint64
	// seqChunk is how many SeqES switches are drawn before they are
	// executed. It only shows in the output when a Connected escape
	// draws from the same stream in the middle of a chunk.
	seqChunk int
}

func classOf[E switching.EdgeKind[E]]() class {
	var e E
	if e.Directed() {
		return class{permSalt: 0x5DEECE66D, seqChunk: 1}
	}
	return class{directionBit: true, permSalt: 0xA5A5A5A5A5A5A5A5, seqChunk: 1 << 12}
}

// stepper is the per-algorithm resumable state behind an Engine. step
// advances exactly one superstep (⌊m/2⌋ switch attempts for ES-MC
// chains, one global switch for G-ES-MC chains), accumulating counters
// into stats; release parks the chain's worker gang, if it owns one.
type stepper interface {
	step(stats *RunStats)
	release()
}

// Engine is a resumable Markov-chain run over an edge list of type E:
// the edges are compiled once into the algorithm's working state (hash
// set, dependency table, RNG streams) by NewEngine, after which Steps
// advances the chain in arbitrarily many increments without rebuilding
// anything. A single Steps(ctx, k) call is bit-identical to the
// one-shot Run with the same arguments; splitting the same k across
// several calls yields the same final edge list for every algorithm,
// because the switch sequence drawn from the seed does not depend on
// the partitioning and every implementation realizes sequential
// Definition-1 semantics over that sequence.
type Engine[E switching.EdgeKind[E]] struct {
	alg   Algorithm
	st    stepper
	stats RunStats
}

// NewEngine compiles the edge list of a graph with n nodes into the
// working state of the selected algorithm. The slice is retained and
// mutated in place by Steps.
func NewEngine[E switching.EdgeKind[E]](n int, edges []E, alg Algorithm, cfg Config) (*Engine[E], error) {
	if alg < AlgSeqES || alg > AlgParGlobalES {
		return nil, ErrUnknownAlgorithm
	}
	cls := classOf[E]()
	if alg == AlgParES && !cls.directionBit {
		return nil, ErrUnsupportedAlgorithm
	}
	if len(edges) < 2 {
		return nil, ErrTooSmall
	}
	var cons *constraint.Runtime[E]
	if cfg.Constraint.Active() {
		var err error
		cons, err = constraint.NewRuntime(cfg.Constraint, n, edges)
		if err != nil {
			return nil, err
		}
	}
	var st stepper
	switch alg {
	case AlgSeqES:
		st = newSeqESStepper(edges, cfg, cls, cons)
	case AlgSeqGlobalES:
		st = newSeqGlobalStepper(edges, cfg, cons)
	case AlgParES:
		st = newParESStepper(edges, cfg, cons)
	case AlgParGlobalES:
		st = newParGlobalStepper(edges, cfg, cls, cons)
	}
	return &Engine[E]{alg: alg, st: st, stats: RunStats{Algorithm: alg}}, nil
}

// Close releases the engine's persistent worker gang, if the selected
// algorithm owns one. The engine must not be used afterwards. Closing
// is optional — leaked gangs are reclaimed by a finalizer — but
// deterministic for callers that create many engines.
func (e *Engine[E]) Close() { e.st.release() }

// Algorithm returns the algorithm the engine runs.
func (e *Engine[E]) Algorithm() Algorithm { return e.alg }

// Stats returns the counters accumulated over the engine's lifetime.
func (e *Engine[E]) Stats() RunStats { return e.stats }

// Steps advances the chain by k supersteps and returns the statistics of
// exactly this increment. Cancellation is honored at superstep
// boundaries: on ctx expiry the edge list is left in the valid state
// after the last completed superstep and ctx.Err() is returned
// alongside the partial statistics.
func (e *Engine[E]) Steps(ctx context.Context, k int) (RunStats, error) {
	start := time.Now()
	delta := RunStats{Algorithm: e.alg}
	var err error
	for i := 0; i < k; i++ {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		e.st.step(&delta)
		delta.Supersteps++
	}
	delta.Duration = time.Since(start)
	e.stats.Supersteps += delta.Supersteps
	e.stats.Attempted += delta.Attempted
	e.stats.Legal += delta.Legal
	e.stats.InternalSupersteps += delta.InternalSupersteps
	e.stats.TotalRounds += delta.TotalRounds
	if delta.MaxRounds > e.stats.MaxRounds {
		e.stats.MaxRounds = delta.MaxRounds
	}
	e.stats.FirstRoundTime += delta.FirstRoundTime
	e.stats.LaterRoundsTime += delta.LaterRoundsTime
	e.stats.Vetoed += delta.Vetoed
	e.stats.EscapeAttempts += delta.EscapeAttempts
	e.stats.EscapeMoves += delta.EscapeMoves
	e.stats.Duration += delta.Duration
	return delta, err
}

// newRunner prepares the parallel chains' superstep runner for up to
// maxSwitches switches per superstep, applying the engine's kernel
// knobs and, when constrained, the constraint binding.
func newRunner[E switching.EdgeKind[E]](edges []E, maxSwitches int, cfg Config, cons *constraint.Runtime[E]) *switching.Runner[E] {
	r := switching.NewRunner(edges, maxSwitches, cfg.workers())
	r.Pessimistic = cfg.PessimisticRounds
	if cons != nil {
		bindRunner(cons, r)
	}
	return r
}

// runnerSnap tracks the last-seen kernel counters of a runner so that
// per-increment deltas can be carved out of its cumulative totals.
// MaxRounds stays cumulative (a maximum does not decompose into
// deltas).
type runnerSnap struct {
	prev switching.Stats
}

func (s *runnerSnap) flushDelta(cur switching.Stats, stats *RunStats) {
	d := cur.Sub(s.prev)
	s.prev = cur
	stats.Legal += d.Legal
	stats.InternalSupersteps += d.InternalSupersteps
	stats.TotalRounds += d.TotalRounds
	if d.MaxRounds > stats.MaxRounds {
		stats.MaxRounds = d.MaxRounds
	}
	stats.FirstRoundTime += d.FirstRoundTime
	stats.LaterRoundsTime += d.LaterRoundsTime
	// A rolled-back switch was ultimately rejected by the constraint
	// layer, same as a decide-phase veto.
	stats.Vetoed += d.Vetoed + d.RolledBack
}
