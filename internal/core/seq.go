package core

import (
	"errors"

	"gesmc/internal/conc"
	"gesmc/internal/constraint"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// ErrTooSmall is returned for graphs with fewer than two edges, on which
// no switch is defined.
var ErrTooSmall = errors.New("core: graph has fewer than 2 edges")

// newEdgeSet builds the sequential chains' hash set over edges. Arcs are
// stored bit-cast to graph.Edge, exactly as conc.EdgeSet stores them in
// the parallel kernel: both pack two 32-bit endpoints, and the set
// hashes the 64-bit word without canonicalizing it.
func newEdgeSet[E switching.EdgeKind[E]](edges []E) *hashset.Set {
	S := hashset.New(len(edges))
	for _, e := range edges {
		S.Insert(graph.Edge(e))
	}
	return S
}

// ExecuteSequential performs the given switches in order on edge list E
// with edge set S, exactly following Definition 1: a switch is rejected
// iff a target is a loop or already exists in E (sources included). It
// returns the number of accepted switches. It is the reference semantics
// against which the parallel algorithms are verified.
func ExecuteSequential[E switching.EdgeKind[E]](edges []E, S *hashset.Set, switches []Switch) int64 {
	var legal int64
	for _, sw := range switches {
		e1 := edges[sw.I]
		e2 := edges[sw.J]
		t3, t4 := e1.Targets(e2, sw.G)
		if switching.IsLoop(t3) || switching.IsLoop(t4) {
			continue
		}
		// Sources are still in S, so own-target switches (possible when
		// e1 and e2 share a node) reject here, as do genuine conflicts.
		if S.Contains(graph.Edge(t3)) || S.Contains(graph.Edge(t4)) {
			continue
		}
		S.Erase(graph.Edge(e1))
		S.Erase(graph.Edge(e2))
		S.Insert(graph.Edge(t3))
		S.Insert(graph.Edge(t4))
		edges[sw.I] = t3
		edges[sw.J] = t4
		legal++
	}
	return legal
}

// pipelineDepth is the number of in-flight switches of the §5.4-style
// software pipeline: targets and hash buckets of the next switches are
// computed (and their buckets touched) ahead of execution.
const pipelineDepth = 4

// executeSequentialPipelined is ExecuteSequential with the bucket
// pre-touch pipeline of §5.4. Touching is only a memory hint — staleness
// cannot affect correctness, exactly as with hardware prefetches.
func executeSequentialPipelined[E switching.EdgeKind[E]](edges []E, S *hashset.Set, switches []Switch) int64 {
	var legal int64
	n := len(switches)
	for base := 0; base < n; base += pipelineDepth {
		hi := min(base+pipelineDepth, n)
		// Stage 1: touch the buckets the upcoming switches will probe.
		for k := base; k < hi; k++ {
			sw := switches[k]
			e1, e2 := edges[sw.I], edges[sw.J]
			t3, t4 := e1.Targets(e2, sw.G)
			S.Touch(graph.Edge(e1))
			S.Touch(graph.Edge(e2))
			S.Touch(graph.Edge(t3))
			S.Touch(graph.Edge(t4))
		}
		// Stage 2: run them for real.
		legal += ExecuteSequential(edges, S, switches[base:hi])
	}
	return legal
}

// pipelined decides whether the sequential chains run the pipelined
// executor on a hash set of the given bucket count (8 bytes each), on a
// core with l2Bytes of private cache. The pre-touch only pays once the
// set outgrows L2: below that its probes mostly hit cache and the extra
// loads are pure overhead.
func pipelined(buckets, l2Bytes int) bool {
	return 8*buckets >= l2Bytes
}

// seqExec is the execution half shared by the sequential chains: the
// persistent edge array plus hash set, and the constraint runtime when
// one is active.
type seqExec[E switching.EdgeKind[E]] struct {
	E         []E
	S         *hashset.Set
	src       rng.Source
	pipelined bool
	cons      *constraint.Runtime[E]
}

func newSeqExec[E switching.EdgeKind[E]](edges []E, cfg Config, cons *constraint.Runtime[E]) seqExec[E] {
	S := newEdgeSet(edges)
	if cons != nil {
		bindHashSet(cons, S)
	}
	return seqExec[E]{
		E:         edges,
		S:         S,
		src:       rng.NewMT19937(cfg.Seed),
		pipelined: pipelined(S.Buckets(), conc.Topology().L2Bytes),
		cons:      cons,
	}
}

// run executes switches in order. A constrained run may draw escape
// moves from the chain's own stream, so when switches are drawn
// relative to their execution is part of the chain's seed-to-output
// map.
func (x *seqExec[E]) run(switches []Switch, stats *RunStats) {
	switch {
	case x.cons != nil:
		var cc constraint.Counters
		x.cons.ExecuteSequential(x.E, switches, x.src, &cc)
		addCounters(stats, &cc)
	case x.pipelined:
		stats.Legal += executeSequentialPipelined(x.E, x.S, switches)
	default:
		stats.Legal += ExecuteSequential(x.E, x.S, switches)
	}
}

func (x *seqExec[E]) release() {}

// seqESStepper is the production sequential ES-MC (§5's SeqES): per
// superstep, ⌊m/2⌋ uniformly random switches executed per Definition 1
// on the persistent edge array plus hash set, drawn in chunks of the
// edge class's seqChunk.
type seqESStepper[E switching.EdgeKind[E]] struct {
	seqExec[E]
	cls class
	buf []Switch
}

func newSeqESStepper[E switching.EdgeKind[E]](edges []E, cfg Config, cls class, cons *constraint.Runtime[E]) stepper {
	return &seqESStepper[E]{
		seqExec: newSeqExec(edges, cfg, cons),
		cls:     cls,
		buf:     make([]Switch, 0, cls.seqChunk),
	}
}

func (s *seqESStepper[E]) step(stats *RunStats) {
	m := len(s.E)
	perStep := int64(m / 2)
	for done := int64(0); done < perStep; {
		buf := s.buf[:min(perStep-done, int64(s.cls.seqChunk))]
		for k := range buf {
			i, j := rng.TwoDistinct(s.src, m)
			buf[k] = Switch{I: uint32(i), J: uint32(j), G: s.cls.directionBit && rng.Bool(s.src)}
		}
		s.run(buf, stats)
		done += int64(len(buf))
	}
	stats.Attempted += perStep
}

// seqGlobalStepper is the production sequential G-ES-MC (§5's
// SeqGlobalES): each superstep shuffles the edge indices, draws ℓ, and
// executes the resulting switches in order.
type seqGlobalStepper[E switching.EdgeKind[E]] struct {
	seqExec[E]
	pl  float64
	buf []Switch
}

func newSeqGlobalStepper[E switching.EdgeKind[E]](edges []E, cfg Config, cons *constraint.Runtime[E]) stepper {
	return &seqGlobalStepper[E]{
		seqExec: newSeqExec(edges, cfg, cons),
		pl:      cfg.loopProb(),
		buf:     make([]Switch, 0, len(edges)/2),
	}
}

func (s *seqGlobalStepper[E]) step(stats *RunStats) {
	perm, l := SampleGlobalSwitch(len(s.E), s.pl, s.src)
	s.buf = GlobalSwitches(perm, l, s.buf)
	s.run(s.buf, stats)
	stats.Attempted += int64(l)
}
