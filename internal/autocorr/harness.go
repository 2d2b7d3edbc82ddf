package autocorr

import (
	"gesmc/internal/core"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
)

// Chain selects which Markov chain the harness drives.
type Chain int

const (
	// ChainES is ES-MC; one superstep = ⌊m/2⌋ uniform switches.
	ChainES Chain = iota
	// ChainGlobalES is G-ES-MC; one superstep = one global switch.
	ChainGlobalES
)

func (c Chain) String() string {
	if c == ChainGlobalES {
		return "G-ES-MC"
	}
	return "ES-MC"
}

// Result is the outcome of one analysis run.
type Result struct {
	Chain     Chain
	Thinnings []int
	// NonIndependent[i] is the fraction of tracked edges still
	// Markov-like at thinning Thinnings[i].
	NonIndependent []float64
}

// Analyze runs the chain for supersteps supersteps on a clone of g,
// tracking the edges of the initial graph (the paper's NetRep protocol;
// for tiny graphs this is nearly all information) and returns the
// fraction of non-independent edges per thinning value.
func Analyze(g *graph.Graph, chain Chain, supersteps int, thinnings []int, loopProb float64, seed uint64) Result {
	work := g.Clone()
	m := work.M()
	E := work.Edges()
	S := hashset.FromEdges(E)
	src := rng.NewMT19937(seed)

	tracked := append([]graph.Edge(nil), g.Edges()...)
	col := NewCollector(len(tracked), thinnings)
	bits := make([]bool, len(tracked))

	record := func(t int) {
		bits = TrackedBits(tracked, S.Contains, bits)
		col.Record(t, bits)
	}
	record(0)

	var buf []core.Switch
	for t := 1; t <= supersteps; t++ {
		switch chain {
		case ChainES:
			sw := core.SampleSwitches(m, m/2, src)
			core.ExecuteSequential(E, S, sw)
		case ChainGlobalES:
			perm, l := core.SampleGlobalSwitch(m, loopProb, src)
			buf = core.GlobalSwitches(perm, l, buf)
			core.ExecuteSequential(E, S, buf)
		}
		record(t)
	}

	return Result{
		Chain:          chain,
		Thinnings:      col.Thinnings(),
		NonIndependent: col.FractionNonIndependent(),
	}
}

// FirstThinningBelow returns the smallest thinning value whose
// non-independent fraction is below tau, or 0 if none qualifies — the
// y-axis of Figure 3.
func (r Result) FirstThinningBelow(tau float64) int {
	for i, k := range r.Thinnings {
		if r.NonIndependent[i] < tau {
			return k
		}
	}
	return 0
}

// MeanResults averages the NonIndependent curves of several runs
// (same thinning schedule required).
func MeanResults(results []Result) Result {
	if len(results) == 0 {
		return Result{}
	}
	out := Result{
		Chain:          results[0].Chain,
		Thinnings:      results[0].Thinnings,
		NonIndependent: make([]float64, len(results[0].NonIndependent)),
	}
	for _, r := range results {
		for i, v := range r.NonIndependent {
			out.NonIndependent[i] += v
		}
	}
	for i := range out.NonIndependent {
		out.NonIndependent[i] /= float64(len(results))
	}
	return out
}
