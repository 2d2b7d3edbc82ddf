package core

import (
	"gesmc/internal/constraint"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/switching"
)

// ErrDisconnected is returned by NewEngine when the connectivity
// constraint is configured over a graph that is not (weakly) connected
// (alias of the constraint package's sentinel, so errors.Is classifies
// both).
var ErrDisconnected = constraint.ErrDisconnected

// bindHashSet points the runtime's graph ops at a sequential chain's
// hash set, which stores every edge class bit-cast to graph.Edge.
func bindHashSet[E switching.EdgeKind[E]](c *constraint.Runtime[E], S *hashset.Set) {
	c.Ops = constraint.GraphOps[E]{
		Contains: func(e E) bool { return S.Contains(graph.Edge(e)) },
		Insert:   func(e E) { S.Insert(graph.Edge(e)) },
		Erase:    func(e E) { S.Erase(graph.Edge(e)) },
	}
}

// bindRunner installs the local veto on a parallel chain's runner and
// points the graph ops at its concurrent edge set, which stores edges
// bit-cast exactly like the hash set.
func bindRunner[E switching.EdgeKind[E]](c *constraint.Runtime[E], r *switching.Runner[E]) {
	r.Veto = c.Veto
	c.Ops = constraint.GraphOps[E]{
		Contains: func(e E) bool { return r.Set.Contains(graph.Edge(e)) },
		Insert:   func(e E) { r.Set.InsertUnique(graph.Edge(e)) },
		Erase:    func(e E) { r.Set.EraseUnique(graph.Edge(e)) },
	}
}

// addCounters folds one constrained execution's counters into the run
// statistics.
func addCounters(stats *RunStats, c *constraint.Counters) {
	stats.Legal += c.Legal
	stats.Vetoed += c.Vetoed
	stats.EscapeAttempts += c.EscapeAttempts
	stats.EscapeMoves += c.EscapeMoves
}
