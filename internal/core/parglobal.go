package core

import (
	"gesmc/internal/constraint"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// parGlobalStepper is the production ParGlobalES (Algorithm 3): per
// superstep, draw a parallel random permutation of the edge indices and
// ℓ ~ Binom(⌊m/2⌋, 1−P_L), then run one ParallelSuperstep. A global
// switch has no source dependencies by definition (each edge index
// occurs at most once in π), so it is exactly one superstep. The
// per-superstep permutation seeds are drawn lazily from one SplitMix64
// stream (salted per edge class), so a resumed engine replays the
// identical chain.
type parGlobalStepper[E switching.EdgeKind[E]] struct {
	m        int
	src      rng.Source      // binomial ℓ draws
	seedSrc  *rng.SplitMix64 // per-superstep permutation seeds
	runner   *switching.Runner[E]
	perm     *rng.PermGen
	dispatch rng.Dispatch // runner's gang, stored once (alloc-free steps)
	buf      []Switch
	pl       float64
	snap     runnerSnap
	cons     *constraint.Runtime[E]
}

func newParGlobalStepper[E switching.EdgeKind[E]](edges []E, cfg Config, cls class, cons *constraint.Runtime[E]) stepper {
	m := len(edges)
	runner := newRunner(edges, m/2, cfg, cons)
	return &parGlobalStepper[E]{
		m:        m,
		src:      rng.NewMT19937(cfg.Seed),
		seedSrc:  rng.NewSplitMix64(cfg.Seed ^ cls.permSalt),
		runner:   runner,
		perm:     rng.NewPermGen(m),
		dispatch: runner.Pool().Blocks,
		buf:      make([]Switch, 0, m/2),
		pl:       cfg.loopProb(),
		cons:     cons,
	}
}

func (s *parGlobalStepper[E]) step(stats *RunStats) {
	perm := s.perm.Generate(s.seedSrc.Uint64(), s.dispatch)
	l := int(rng.BinomialComplementSmall(s.src, int64(s.m/2), s.pl))
	s.buf = GlobalSwitches(perm, l, s.buf)
	s.runner.Run(s.buf)
	stats.Attempted += int64(l)
	if s.cons != nil {
		var cc constraint.Counters
		s.cons.AfterSuperstep(s.runner, s.buf, s.src, &cc)
		addCounters(stats, &cc)
	}
	s.snap.flushDelta(s.runner.Stats, stats)
}

func (s *parGlobalStepper[E]) release() { s.runner.Release() }
