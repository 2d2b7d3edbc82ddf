// Package curveball implements the Curveball Markov chain and its Global
// Curveball variant for simple undirected graphs — the related sampling
// chain the paper compares against conceptually (§1.1; Carstens, Berger
// & Strona 2016, and the Global Curveball of Carstens et al., ESA 2018).
// A trade between two nodes shuffles their disjoint neighborhoods; a
// global trade pairs every node exactly once via a random permutation.
//
// Two implementations coexist. State (this file) is the classic
// sequential formulation — trades in strict order, each observing all
// previous trades — kept as the mixing comparator used by
// internal/autocorr. Engine (parallel.go) is the superstep formulation
// built on the unified switching kernel: global trades (and batched
// local trades) execute as conflict-free parallel supersteps under a
// per-batch edge ownership discipline, bit-identical for every worker
// count (DESIGN.md §4). The public Sampler's Curveball chains run on
// Engine.
package curveball

import (
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
)

// State is a graph under Curveball trades: adjacency lists plus an edge
// set for O(1) membership tests.
type State struct {
	n   int
	adj [][]graph.Node
	set *hashset.Set
}

// NewState builds the trade state from a simple graph.
func NewState(g *graph.Graph) *State {
	n := g.N()
	s := &State{
		n:   n,
		adj: make([][]graph.Node, n),
		set: hashset.FromEdges(g.Edges()),
	}
	deg := g.Degrees()
	for v := 0; v < n; v++ {
		s.adj[v] = make([]graph.Node, 0, deg[v])
	}
	for _, e := range g.Edges() {
		s.adj[e.U()] = append(s.adj[e.U()], e.V())
		s.adj[e.V()] = append(s.adj[e.V()], e.U())
	}
	return s
}

// Graph materializes the current state as a graph (fresh edge list).
func (s *State) Graph() *graph.Graph {
	var edges []graph.Edge
	s.set.ForEach(func(e graph.Edge) { edges = append(edges, e) })
	return graph.NewUnchecked(s.n, edges)
}

// WriteEdges writes the current edge set into dst, which must have
// length equal to the state's edge count (trades preserve it). The
// order is the set's deterministic iteration order, so resumed runs
// with the same seed produce identical edge lists.
func (s *State) WriteEdges(dst []graph.Edge) {
	i := 0
	s.set.ForEach(func(e graph.Edge) {
		dst[i] = e
		i++
	})
	if i != len(dst) {
		panic("curveball: edge count drifted")
	}
}

// Contains reports whether the edge {u, v} currently exists.
func (s *State) Contains(u, v graph.Node) bool {
	return s.set.Contains(graph.MakeEdge(u, v))
}

// Trade performs one Curveball trade between distinct nodes u and v:
// the neighbors exclusive to u and exclusive to v (excluding u, v
// themselves) are pooled, shuffled, and redealt in the original counts.
// Degrees and simplicity are preserved by construction.
func (s *State) Trade(u, v graph.Node, src rng.Source) {
	if u == v {
		panic("curveball: trade requires distinct nodes")
	}
	// Partition u's neighborhood into fixed (shared with v, or v
	// itself) and tradeable.
	pool := make([]graph.Node, 0, len(s.adj[u])+len(s.adj[v]))
	fixedU := s.adj[u][:0]
	for _, w := range s.adj[u] {
		if w == v || s.Contains(v, w) {
			fixedU = append(fixedU, w)
		} else {
			pool = append(pool, w)
		}
	}
	nu := len(pool)
	fixedV := s.adj[v][:0]
	for _, w := range s.adj[v] {
		if w == u || s.Contains(u, w) {
			fixedV = append(fixedV, w)
		} else {
			pool = append(pool, w)
		}
	}

	// Shuffle the pooled disjoint neighbors and redeal.
	for i := len(pool) - 1; i > 0; i-- {
		j := rng.IntN(src, i+1)
		pool[i], pool[j] = pool[j], pool[i]
	}

	// Rewire: first nu go to u, the rest to v.
	for i, w := range pool {
		var from, to graph.Node
		if i < nu {
			to = u
			from = v
		} else {
			to = v
			from = u
		}
		old := graph.MakeEdge(from, w)
		if s.set.Contains(old) {
			// w moved between endpoints: update the edge set and w's
			// adjacency entry.
			s.set.Erase(old)
			s.set.Insert(graph.MakeEdge(to, w))
			replaceNeighbor(s.adj[w], from, to)
		}
	}
	s.adj[u] = append(fixedU, pool[:nu]...)
	s.adj[v] = append(fixedV, pool[nu:]...)
}

func replaceNeighbor(nb []graph.Node, from, to graph.Node) {
	for i, w := range nb {
		if w == from {
			nb[i] = to
			return
		}
	}
	panic("curveball: adjacency inconsistent")
}

// GlobalTrade performs one global trade: nodes are paired by a uniform
// permutation and every pair trades once (⌊n/2⌋ trades touching each
// node exactly once).
func (s *State) GlobalTrade(src rng.Source) {
	perm := rng.Perm(src, s.n)
	for k := 0; k+1 < s.n; k += 2 {
		s.Trade(graph.Node(perm[k]), graph.Node(perm[k+1]), src)
	}
}

// RunCurveball performs r uniformly random trades.
func RunCurveball(g *graph.Graph, trades int, seed uint64) *graph.Graph {
	s := NewState(g)
	src := rng.NewMT19937(seed)
	for i := 0; i < trades; i++ {
		u, v := rng.TwoDistinct(src, s.n)
		s.Trade(graph.Node(u), graph.Node(v), src)
	}
	return s.Graph()
}

// RunGlobalCurveball performs the given number of global trades.
func RunGlobalCurveball(g *graph.Graph, globalTrades int, seed uint64) *graph.Graph {
	s := NewState(g)
	src := rng.NewMT19937(seed)
	for i := 0; i < globalTrades; i++ {
		s.GlobalTrade(src)
	}
	return s.Graph()
}
