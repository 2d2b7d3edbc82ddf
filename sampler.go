package gesmc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gesmc/internal/constraint"
	"gesmc/internal/core"
	"gesmc/internal/curveball"
	"gesmc/internal/exact"
	"gesmc/internal/graph"
	"gesmc/internal/switching"
)

// Target is a graph class the Sampler can randomize: *Graph (simple
// undirected graphs), and *DiGraph (simple directed graphs, which also
// covers bipartite graphs via FromBipartiteDegrees). The interface is
// sealed; the two implementations in this package are the supported
// target classes.
type Target interface {
	newSamplerEngine(cfg *samplerConfig) (samplerEngine, error)
}

// samplerEngine is the compiled, resumable chain state behind a Sampler.
type samplerEngine interface {
	// steps advances k supersteps, honoring ctx at superstep boundaries.
	steps(ctx context.Context, k int) (engineStats, error)
	// snapshot clones the target's current state.
	snapshot() (*Graph, *DiGraph)
	// close releases the chain's persistent worker gang, if any.
	close()
}

// engineStats carries raw counters between the internal engines and the
// public Stats, so increments merge exactly.
type engineStats struct {
	supersteps   int
	attempted    int64
	legal        int64
	internal     int
	totalRounds  int64
	maxRounds    int
	firstRound   time.Duration
	laterRounds  time.Duration
	vetoed       int64
	escAttempts  int64
	escMoves     int64
	restarts     int64
	loopDefects  int64
	multiDefects int64
	duration     time.Duration
}

func (a *engineStats) add(b engineStats) {
	a.supersteps += b.supersteps
	a.attempted += b.attempted
	a.legal += b.legal
	a.internal += b.internal
	a.totalRounds += b.totalRounds
	if b.maxRounds > a.maxRounds {
		a.maxRounds = b.maxRounds
	}
	a.firstRound += b.firstRound
	a.laterRounds += b.laterRounds
	a.vetoed += b.vetoed
	a.escAttempts += b.escAttempts
	a.escMoves += b.escMoves
	a.restarts += b.restarts
	a.loopDefects += b.loopDefects
	a.multiDefects += b.multiDefects
	a.duration += b.duration
}

func (a engineStats) toStats(algorithm string) Stats {
	st := Stats{
		Algorithm:        algorithm,
		Supersteps:       a.supersteps,
		Attempted:        a.attempted,
		Accepted:         a.legal,
		MaxRounds:        a.maxRounds,
		ConstraintVetoes: a.vetoed,
		EscapeAttempts:   a.escAttempts,
		EscapeMoves:      a.escMoves,
		Restarts:         a.restarts,
		LoopDefects:      a.loopDefects,
		MultiDefects:     a.multiDefects,
		Duration:         a.duration,
	}
	if a.internal > 0 {
		st.AvgRounds = float64(a.totalRounds) / float64(a.internal)
	}
	if total := a.firstRound + a.laterRounds; total > 0 {
		st.LateRoundsFraction = float64(a.laterRounds) / float64(total)
	}
	st.FirstRoundTime = a.firstRound
	st.LaterRoundsTime = a.laterRounds
	return st
}

// Progress reports sampler advancement to a WithProgress callback.
type Progress struct {
	// Supersteps advanced over the sampler's lifetime.
	Supersteps int
	// Samples emitted so far (via Sample, Ensemble, or Collect).
	Samples int
}

// Sample is one draw of an ensemble: a deep copy of the target after
// burn-in/thinning, with the statistics of the supersteps that produced
// it. Exactly one of Graph and DiGraph is non-nil, matching the
// sampler's target class. A Sample with Err != nil reports early
// termination (context cancellation) and carries no graph.
type Sample struct {
	// Index is the position of this draw in the ensemble, from 0.
	Index int
	// Graph is the drawn undirected graph (nil for directed targets).
	Graph *Graph
	// DiGraph is the drawn directed graph (nil for undirected targets).
	DiGraph *DiGraph
	// Stats covers the supersteps advanced for this draw.
	Stats Stats
	// Err is the terminal error, if the ensemble stopped early.
	Err error
}

// Sampler is a reusable, stateful sampling engine: NewSampler compiles
// the target graph once into the selected algorithm's working state
// (hash-based edge set, dependency table, adjacency lists, RNG streams),
// after which Step, Sample, and Ensemble advance the same Markov chain
// without ever rebuilding that state. This amortizes the setup cost the
// paper's data structures (§5) are designed around: drawing k samples
// through one Sampler costs one compilation plus burn-in plus (k-1)
// thinning intervals, against k full burn-ins for k one-shot Randomize
// calls.
//
// The Sampler mutates the target in place; Ensemble and Collect hand
// out deep copies. A Sampler is not safe for concurrent use.
type Sampler struct {
	target  Target
	eng     samplerEngine
	algName string
	burnIn  int
	thin    int

	progress func(Progress)
	steps    int
	samples  int
	burned   bool
	closed   bool
	total    engineStats
}

// NewSampler compiles the target into a reusable sampling engine.
// Options validate eagerly; the first invalid option is returned as a
// typed error (see errors.go).
func NewSampler(t Target, opts ...Option) (*Sampler, error) {
	if t == nil {
		return nil, ErrNilTarget
	}
	cfg := defaultSamplerConfig()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	eng, err := t.newSamplerEngine(&cfg)
	if err != nil {
		return nil, err
	}
	burnIn, thin := cfg.burnInSteps(), cfg.thinningSteps()
	if cfg.algorithm == Exact {
		// Exact draws are i.i.d.: one superstep is one fresh uniform
		// draw, so burn-in and thinning collapse to a single superstep
		// (explicit schedule options were already rejected by the
		// engine compile with ErrExactSchedule).
		burnIn, thin = 1, 1
	}
	return &Sampler{
		target:   t,
		eng:      eng,
		algName:  cfg.algorithm.String(),
		burnIn:   burnIn,
		thin:     thin,
		progress: cfg.progress,
	}, nil
}

// Close releases the sampler's persistent worker gang (the parallel
// algorithms park P-1 long-lived goroutines between supersteps). The
// target keeps its current state. Close is idempotent; after the first
// call, Step, Sample, Ensemble, and Collect return ErrClosed instead of
// touching the released gang. Closing is optional — a leaked sampler's
// gang is reclaimed by a finalizer once the sampler is collected — but
// deterministic release is good hygiene for callers that compile many
// samplers (engine pools close evicted samplers through this path).
func (s *Sampler) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.close()
}

// Closed reports whether Close has been called.
func (s *Sampler) Closed() bool { return s.closed }

// Algorithm returns the name of the chain the sampler runs.
func (s *Sampler) Algorithm() string { return s.algName }

// BurnIn returns the supersteps the first Sample call advances.
func (s *Sampler) BurnIn() int { return s.burnIn }

// Thinning returns the supersteps between consecutive samples.
func (s *Sampler) Thinning() int { return s.thin }

// Supersteps returns the total supersteps advanced over the sampler's
// lifetime.
func (s *Sampler) Supersteps() int { return s.steps }

// Samples returns the number of samples drawn so far.
func (s *Sampler) Samples() int { return s.samples }

// Stats returns the statistics accumulated over the sampler's lifetime.
func (s *Sampler) Stats() Stats { return s.total.toStats(s.algName) }

// advance moves the chain k supersteps, merging counters exactly and
// firing the progress callback per superstep when registered.
func (s *Sampler) advance(ctx context.Context, k int) (Stats, error) {
	if s.closed {
		return Stats{}, ErrClosed
	}
	if k < 0 {
		return Stats{}, fmt.Errorf("%w: got %d", ErrInvalidSupersteps, k)
	}
	var agg engineStats
	if s.progress == nil {
		es, err := s.eng.steps(ctx, k)
		s.steps += es.supersteps
		s.total.add(es)
		return es.toStats(s.algName), err
	}
	for i := 0; i < k; i++ {
		es, err := s.eng.steps(ctx, 1)
		s.steps += es.supersteps
		s.total.add(es)
		agg.add(es)
		if err != nil {
			return agg.toStats(s.algName), err
		}
		s.progress(Progress{Supersteps: s.steps, Samples: s.samples})
	}
	return agg.toStats(s.algName), nil
}

// Step advances the chain by k supersteps (one superstep = ⌊m/2⌋ switch
// attempts for ES-MC chains, one global switch/trade for the global
// chains) and returns the statistics of exactly this increment. The
// target reflects the new state in place.
func (s *Sampler) Step(k int) (Stats, error) {
	return s.StepContext(context.Background(), k)
}

// StepContext is Step with cancellation, honored at superstep
// boundaries: on ctx expiry the target is left in the valid state after
// the last completed superstep and ctx.Err() is returned alongside
// partial statistics.
func (s *Sampler) StepContext(ctx context.Context, k int) (Stats, error) {
	return s.advance(ctx, k)
}

// Sample advances the chain to the next independent sample: the burn-in
// interval on the first call, the thinning interval afterwards. The
// target then holds the sample; read it in place, or Clone it to keep
// it past the next advance.
func (s *Sampler) Sample() (Stats, error) {
	return s.SampleContext(context.Background())
}

// SampleContext is Sample with cancellation.
func (s *Sampler) SampleContext(ctx context.Context) (Stats, error) {
	k := s.thin
	if !s.burned {
		k = s.burnIn
	}
	st, err := s.advance(ctx, k)
	if err != nil {
		return st, err
	}
	s.burned = true
	s.samples++
	return st, nil
}

// Burned reports whether the burn-in interval has been paid: the next
// Sample call advances the thinning interval rather than the burn-in.
// Pooling layers use it together with Supersteps to decide whether a
// cached chain can still fast-forward to a resume point.
func (s *Sampler) Burned() bool { return s.burned }

// FastForwardTo advances the chain so that the next Sample call emits
// the canonical ensemble draw with the given index — the chain state
// after burnIn + index·thinning supersteps from the compiled target,
// exactly the state an uninterrupted Ensemble run reaches for its
// index-th sample (superstep advancement is split-invariant, see
// TestEngineSplitStepsMatchOneShot). This is the resume primitive of
// the serving layer: a stream broken after index samples is continued
// bit-identically by fast-forwarding a fresh sampler with the same
// (target, options, seed) and drawing the remaining samples.
//
// The chain only runs forward: if it has already advanced past the
// required position (a pooled sampler that served a longer stream),
// FastForwardTo returns ErrResumeBehind and the chain is unchanged.
// On context cancellation the chain stops at a superstep boundary and
// remains valid. The returned Stats cover the supersteps advanced by
// the fast-forward itself.
func (s *Sampler) FastForwardTo(ctx context.Context, index int) (Stats, error) {
	if s.closed {
		return Stats{}, ErrClosed
	}
	if index < 0 {
		return Stats{}, fmt.Errorf("%w: got %d", ErrInvalidCount, index)
	}
	// Position the chain so the next advance (burn-in if unburned,
	// thinning if burned) lands exactly on burnIn + index·thinning.
	pos := index * s.thin
	if s.burned {
		pos += s.burnIn - s.thin
	}
	if pos < s.steps {
		return Stats{}, fmt.Errorf("%w: chain at superstep %d, resume point needs %d",
			ErrResumeBehind, s.steps, pos)
	}
	return s.advance(ctx, pos-s.steps)
}

// Ensemble streams count thinned samples as deep copies over a channel,
// the null-model workload: one engine compilation, one burn-in, then a
// sample every thinning interval. The channel closes after the last
// sample; on cancellation it closes early, delivering a final Sample
// carrying the context error when the consumer is keeping pace (best
// effort — use Collect when the terminal error must be observed
// synchronously). Callers must either drain the channel or cancel ctx;
// abandoning it without cancelling leaks the producing goroutine.
func (s *Sampler) Ensemble(ctx context.Context, count int) <-chan Sample {
	ch := make(chan Sample, 1)
	go func() {
		defer close(ch)
		if count < 0 {
			ch <- Sample{Err: fmt.Errorf("%w: got %d", ErrInvalidCount, count)}
			return
		}
		for i := 0; i < count; i++ {
			st, err := s.SampleContext(ctx)
			if err != nil {
				// Deliver the termination marker if anyone still listens.
				select {
				case ch <- Sample{Index: i, Stats: st, Err: err}:
				default:
				}
				return
			}
			g, dg := s.eng.snapshot()
			smp := Sample{Index: i, Graph: g, DiGraph: dg, Stats: st}
			select {
			case ch <- smp:
			case <-ctx.Done():
				select {
				case ch <- Sample{Index: i, Err: ctx.Err()}:
				default:
				}
				return
			}
		}
	}()
	return ch
}

// Collect draws count thinned samples synchronously. On cancellation it
// returns the samples drawn so far alongside the context error.
func (s *Sampler) Collect(ctx context.Context, count int) ([]Sample, error) {
	if count < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidCount, count)
	}
	out := make([]Sample, 0, count)
	for i := 0; i < count; i++ {
		st, err := s.SampleContext(ctx)
		if err != nil {
			return out, err
		}
		g, dg := s.eng.snapshot()
		out = append(out, Sample{Index: i, Graph: g, DiGraph: dg, Stats: st})
	}
	return out, nil
}

// ---- engine adapters ----

// switchTarget is a target whose edge list a switching engine
// rewires in place: *Graph or *DiGraph.
type switchTarget interface {
	// snapshot deep-copies the current state into a Sample's fields.
	snapshot() (*Graph, *DiGraph)
	// invalidate drops caches built over the pre-switch state.
	invalidate()
	IsConnected() bool
}

// switchEngine adapts core.Engine — the four switching chains, over
// undirected edges and directed arcs alike — to the sampler.
type switchEngine[E switching.EdgeKind[E]] struct {
	t   switchTarget
	eng *core.Engine[E]
}

func (e *switchEngine[E]) steps(ctx context.Context, k int) (engineStats, error) {
	rs, err := e.eng.Steps(ctx, k)
	e.t.invalidate()
	return engineStats{
		supersteps:  rs.Supersteps,
		attempted:   rs.Attempted,
		legal:       rs.Legal,
		internal:    rs.InternalSupersteps,
		totalRounds: rs.TotalRounds,
		maxRounds:   rs.MaxRounds,
		firstRound:  rs.FirstRoundTime,
		laterRounds: rs.LaterRoundsTime,
		vetoed:      rs.Vetoed,
		escAttempts: rs.EscapeAttempts,
		escMoves:    rs.EscapeMoves,
		duration:    rs.Duration,
	}, err
}

func (e *switchEngine[E]) snapshot() (*Graph, *DiGraph) { return e.t.snapshot() }

func (e *switchEngine[E]) close() { e.eng.Close() }

// newSwitchEngine compiles the target's constraints and edge list (n
// nodes) into the core engine of one of the four switching chains; the
// caller has checked that cfg.algorithm is one of them.
func newSwitchEngine[E switching.EdgeKind[E]](t switchTarget, n int, edges []E, cfg *samplerConfig) (samplerEngine, error) {
	var spec *constraint.Spec
	if len(cfg.constraints) > 0 {
		present := make(map[uint64]struct{}, len(edges))
		for _, e := range edges {
			present[uint64(e)] = struct{}{}
		}
		has := func(e uint64) bool { _, ok := present[e]; return ok }
		var err error
		spec, err = compileConstraints(cfg.constraints, n, E(0).Directed(), has, t.IsConnected)
		if err != nil {
			return nil, err
		}
	}
	eng, err := core.NewEngine(n, edges, algNames[cfg.algorithm], core.Config{
		Workers:    cfg.workers,
		Seed:       cfg.seed,
		LoopProb:   cfg.loopProb,
		Constraint: spec,
	})
	switch {
	case errors.Is(err, core.ErrTooSmall):
		return nil, fmt.Errorf("%w: m=%d", ErrGraphTooSmall, len(edges))
	case errors.Is(err, core.ErrUnsupportedAlgorithm):
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, err)
	case err != nil:
		return nil, err
	}
	return &switchEngine[E]{t: t, eng: eng}, nil
}

// curveballEngine adapts the parallel trade kernel to the sampler. One
// superstep is one global trade (GlobalCurveball) or ⌊n/2⌋ uniformly
// random trades (Curveball), mirroring the switch-chains' superstep
// normalization; both execute in superstep batches through the shared
// round driver, so WithWorkers applies and the rounds instrumentation
// is populated exactly like the parallel switching chains'. Trades have
// no rejection, so Accepted == Attempted == the number of trades
// performed, and results are bit-identical for every worker count.
type curveballEngine struct {
	g      *Graph
	eng    *curveball.Engine
	global bool
	prev   switching.Stats
	prevAt int64
}

func (e *curveballEngine) steps(ctx context.Context, k int) (engineStats, error) {
	start := time.Now()
	var es engineStats
	var err error
	for i := 0; i < k; i++ {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		if e.global {
			e.eng.GlobalStep()
		} else {
			e.eng.LocalStep()
		}
		es.supersteps++
	}
	d := e.eng.Stats().Sub(e.prev)
	e.prev = e.eng.Stats()
	es.attempted = e.eng.Attempted - e.prevAt
	e.prevAt = e.eng.Attempted
	es.legal = d.Legal
	es.internal = d.InternalSupersteps
	es.totalRounds = d.TotalRounds
	es.maxRounds = d.MaxRounds
	es.firstRound = d.FirstRoundTime
	es.laterRounds = d.LaterRoundsTime
	e.eng.WriteEdges(e.g.raw().Edges())
	e.g.invalidate()
	es.duration = time.Since(start)
	return es, err
}

func (e *curveballEngine) snapshot() (*Graph, *DiGraph) { return e.g.Clone(), nil }

func (e *curveballEngine) close() { e.eng.Close() }

// exactEngine adapts the exact rejection sampler (internal/exact) to
// the sampler. One superstep is one fresh exactly uniform draw,
// written into the target in place like the chain engines write their
// switched state; the engine holds no chain state beyond the RNG
// stream position, which is what makes pooled exact engines freely
// resumable (DESIGN.md §14). There is no worker gang to release:
// close is a no-op and WithWorkers is accepted but ignored.
type exactEngine struct {
	g   *Graph
	eng *exact.Sampler
}

func (e *exactEngine) steps(ctx context.Context, k int) (engineStats, error) {
	start := time.Now()
	var es engineStats
	before := e.eng.Stats()
	var err error
	for i := 0; i < k; i++ {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		var rg *graph.Graph
		rg, err = e.eng.DrawGraph()
		if err != nil {
			break
		}
		e.g.g = rg
		e.g.invalidate()
		es.supersteps++
	}
	d := e.eng.Stats()
	es.attempted = d.Attempts - before.Attempts
	es.legal = d.Samples - before.Samples
	es.restarts = d.Restarts - before.Restarts
	es.loopDefects = d.LoopDefects - before.LoopDefects
	es.multiDefects = d.MultiDefects - before.MultiDefects
	es.duration = time.Since(start)
	return es, err
}

func (e *exactEngine) snapshot() (*Graph, *DiGraph) { return e.g.Clone(), nil }

func (e *exactEngine) close() {}

// newExactEngine compiles an undirected target for the Exact
// algorithm, mapping the internal typed errors to the public
// sentinels and rejecting the options that have no meaning for i.i.d.
// draws.
func newExactEngine(g *Graph, cfg *samplerConfig) (samplerEngine, error) {
	if len(cfg.constraints) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedConstraint, exactName)
	}
	if cfg.burnIn > 0 || cfg.thinning > 0 || cfg.swapsSet {
		return nil, fmt.Errorf("%w (WithBurnIn/WithThinning/WithSwapsPerEdge with %s)",
			ErrExactSchedule, exactName)
	}
	eng, err := exact.New(g.g.Degrees(), cfg.seed)
	if err != nil {
		var ue *exact.UnsupportedError
		if errors.As(err, &ue) {
			return nil, fmt.Errorf("%w: λ+λ² = %.2f", ErrExactUnsupported, ue.Score)
		}
		// The degree sequence of an existing graph is graphical by
		// construction; anything else is an internal invariant break.
		return nil, err
	}
	return &exactEngine{g: g, eng: eng}, nil
}

// newSamplerEngine compiles an undirected target: the four switching
// chains, the two Curveball chains, and the exact sampler.
func (g *Graph) newSamplerEngine(cfg *samplerConfig) (samplerEngine, error) {
	if g == nil || g.g == nil {
		return nil, ErrNilTarget
	}
	if cfg.algorithm == Exact {
		return newExactEngine(g, cfg)
	}
	if cfg.algorithm == Curveball || cfg.algorithm == GlobalCurveball {
		if len(cfg.constraints) > 0 {
			return nil, fmt.Errorf("%w: %s", ErrUnsupportedConstraint, cfg.algorithm)
		}
		if g.g.M() < 2 {
			return nil, fmt.Errorf("%w: m=%d", ErrGraphTooSmall, g.g.M())
		}
		return &curveballEngine{
			g:      g,
			eng:    curveball.NewEngine(g.g, cfg.workers, cfg.seed),
			global: cfg.algorithm == GlobalCurveball,
		}, nil
	}
	if _, ok := algNames[cfg.algorithm]; !ok {
		return nil, fmt.Errorf("%w: Algorithm(%d)", ErrUnknownAlgorithm, int(cfg.algorithm))
	}
	return newSwitchEngine(g, g.g.N(), g.g.Edges(), cfg)
}

// newSamplerEngine compiles a directed (or bipartite) target.
func (g *DiGraph) newSamplerEngine(cfg *samplerConfig) (samplerEngine, error) {
	if g == nil || g.g == nil {
		return nil, ErrNilTarget
	}
	// The trade chains and the exact tier are undirected; the engine
	// itself refuses directed ParES.
	if _, ok := algNames[cfg.algorithm]; !ok {
		return nil, fmt.Errorf("%w: directed randomization supports SeqES, SeqGlobalES, ParGlobalES; got %s",
			ErrUnsupportedAlgorithm, cfg.algorithm)
	}
	return newSwitchEngine(g, g.g.N(), g.g.Arcs(), cfg)
}
