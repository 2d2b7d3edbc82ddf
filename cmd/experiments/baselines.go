package main

import (
	"sort"
	"sync/atomic"

	"gesmc/internal/conc"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
)

// baseline is one of the paper's experiment-only chains, kept here for
// reproducing Table 4 rather than in the library: NaiveParES does not
// faithfully implement ES-MC and is not even seed-deterministic (§5.1),
// and the others are SeqES on slower data structures. All run on
// undirected graphs and mutate the edge list in place.
type baseline int

const (
	// naiveParES is the inexact parallel baseline of §5.1.
	naiveParES baseline = iota
	// adjListES is SeqES on unsorted adjacency lists (NetworKit-style).
	adjListES
	// adjSortES is SeqES on sorted adjacency lists (Gengraph-style).
	adjSortES
	// seqESBuckets is SeqES sampling edges by random-bucket probes of
	// the hash set instead of the edge array (§5.3's trade-off).
	seqESBuckets
)

func (b baseline) String() string {
	return [...]string{"NaiveParES", "AdjListES", "AdjSortES", "SeqESBuckets"}[b]
}

// baselineStats counts the switches a baseline attempted and accepted.
type baselineStats struct {
	attempted, legal int64
}

// baselineChain is the resumable state of a baseline run. step advances
// one superstep (⌊m/2⌋ switch attempts); finish publishes privately
// buffered edge state back to the graph's edge list; release parks a
// worker gang, if the chain owns one.
type baselineChain interface {
	step(stats *baselineStats)
	finish()
	release()
}

// newBaseline compiles g (m >= 2) into the working state of b. workers
// only applies to naiveParES.
func newBaseline(g *graph.Graph, b baseline, seed uint64, workers int) baselineChain {
	switch b {
	case naiveParES:
		return newNaiveChain(g, seed, workers)
	case seqESBuckets:
		return newBucketsChain(g, seed)
	default:
		return newAdjListChain(g, seed, b == adjSortES)
	}
}

// runBaseline randomizes g in place with supersteps supersteps of b.
func runBaseline(g *graph.Graph, b baseline, supersteps int, seed uint64, workers int) baselineStats {
	c := newBaseline(g, b, seed, workers)
	defer c.release()
	var stats baselineStats
	for i := 0; i < supersteps; i++ {
		c.step(&stats)
	}
	c.finish()
	return stats
}

// naiveChain is the simplistic parallel ES-MC baseline of §5.1: every
// worker performs switches independently, synchronizing only through
// per-edge tickets (lock bytes) in the concurrent hash set. Conflicting
// attempts are rolled back and counted as rejections. The
// implementation ignores dependencies between switches and therefore
// does NOT faithfully implement ES-MC (the paper makes the same
// caveat); it exists as the performance baseline of Table 4.
type naiveChain struct {
	g      *graph.Graph
	m, w   int
	E      []uint64 // edge array with atomic element access (racy reads by design)
	set    *conc.EdgeSet
	seeds  []uint64
	idx    int // supersteps performed so far (feeds the stream mixer)
	pool   *conc.Pool
	legals []int64
}

func newNaiveChain(g *graph.Graph, seed uint64, workers int) *naiveChain {
	// Owner ids must fit the 8-bit lock byte.
	w := min(max(workers, 1), 254)
	m := g.M()
	E := make([]uint64, m)
	for i, e := range g.Edges() {
		E[i] = uint64(e)
	}
	set := conc.NewEdgeSet(2 * m)
	set.BuildFrom(g.Edges(), w)
	return &naiveChain{
		g: g, m: m, w: w, E: E, set: set,
		seeds:  rng.PerWorkerSeeds(seed, w),
		pool:   conc.NewPool(w),
		legals: make([]int64, w),
	}
}

func (s *naiveChain) step(stats *baselineStats) {
	perStep := int64(s.m / 2)
	legals := s.legals
	step := s.idx
	s.pool.Run(func(worker int) {
		// Decorrelate the (worker, step) streams through the full
		// mixer: a plain additive stride equal to SplitMix64's
		// gamma would make consecutive supersteps replay nearly
		// the same stream.
		src := rng.NewSplitMix64(rng.Mix64(s.seeds[worker] ^ (uint64(step)+1)*0xD1B54A32D192ED03))
		owner := uint8(worker)
		lo := perStep * int64(worker) / int64(s.w)
		hi := perStep * int64(worker+1) / int64(s.w)
		var legal int64
		for a := lo; a < hi; a++ {
			if naiveAttempt(s.E, s.set, s.m, owner, src) {
				legal++
			}
		}
		legals[worker] = legal
	})
	for i, l := range legals {
		stats.legal += l
		legals[i] = 0
	}
	stats.attempted += perStep
	s.idx++
	// Quiescent point: drop accumulated tombstones if needed.
	if s.set.NeedsCompact() {
		s.finish()
		s.set.Compact(s.g.Edges(), s.w)
	}
}

// finish writes the edge array back to the graph's edge list; the array
// remains the source of truth between increments.
func (s *naiveChain) finish() {
	edges := s.g.Edges()
	for i := range edges {
		edges[i] = graph.Edge(atomic.LoadUint64(&s.E[i]))
	}
}

func (s *naiveChain) release() { s.pool.Close() }

// naiveAttempt performs one optimistic switch: sample indices, read the
// (possibly stale) edges, lock both sources, re-validate, insert-lock
// both targets, and commit. Any failure unwinds and counts as rejection.
func naiveAttempt(E []uint64, set *conc.EdgeSet, m int, owner uint8, src rng.Source) bool {
	i, j := rng.TwoDistinct(src, m)
	e1 := graph.Edge(atomic.LoadUint64(&E[i]))
	e2 := graph.Edge(atomic.LoadUint64(&E[j]))
	if e1 == e2 {
		return false
	}
	t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(src))
	if t3.IsLoop() || t4.IsLoop() {
		return false
	}

	// Acquire tickets on the source edges.
	if !set.TryLock(e1, owner) {
		return false
	}
	if !set.TryLock(e2, owner) {
		set.Unlock(e1, owner)
		return false
	}
	// Re-validate the edge array: the reads above were racy.
	if graph.Edge(atomic.LoadUint64(&E[i])) != e1 ||
		graph.Edge(atomic.LoadUint64(&E[j])) != e2 {
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return false
	}
	// Acquire tickets on the target edges by inserting them locked.
	// Own-source targets fail here (they exist, locked by us), exactly
	// like Definition 1's "already exists in E".
	if !set.TryInsertLock(t3, owner) {
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return false
	}
	if !set.TryInsertLock(t4, owner) {
		set.EraseLocked(t3, owner)
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return false
	}

	// Commit: rewire the array, drop the sources, publish the targets.
	atomic.StoreUint64(&E[i], uint64(t3))
	atomic.StoreUint64(&E[j], uint64(t4))
	set.EraseLocked(e1, owner)
	set.EraseLocked(e2, owner)
	set.Unlock(t3, owner)
	set.Unlock(t4, owner)
	return true
}

// adjListChain is the sequential adjacency-list ES-MC baseline standing
// in for the external tools of Table 4 (see DESIGN.md): NetworKit-style
// (unsorted neighborhoods, linear-scan existence checks) when sorted is
// false, Gengraph-style (sorted neighborhoods, binary-search existence,
// shift-maintained order) when sorted is true. Both consume randomness
// exactly like SeqES and run the identical chain, only on the slower
// data structure — which is exactly the comparison the paper's Table 4
// makes.
type adjListChain struct {
	E      []graph.Edge
	src    rng.Source
	adj    [][]graph.Node
	sorted bool
}

func newAdjListChain(g *graph.Graph, seed uint64, sorted bool) *adjListChain {
	adj := make([][]graph.Node, g.N())
	for v, d := range g.Degrees() {
		adj[v] = make([]graph.Node, 0, d)
	}
	for _, e := range g.Edges() {
		adj[e.U()] = append(adj[e.U()], e.V())
		adj[e.V()] = append(adj[e.V()], e.U())
	}
	if sorted {
		for _, nb := range adj {
			sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		}
	}
	return &adjListChain{E: g.Edges(), src: rng.NewMT19937(seed), adj: adj, sorted: sorted}
}

func (s *adjListChain) step(stats *baselineStats) {
	m := len(s.E)
	perStep := int64(m / 2)
	for a := int64(0); a < perStep; a++ {
		i, j := rng.TwoDistinct(s.src, m)
		e1, e2 := s.E[i], s.E[j]
		t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(s.src))
		if t3.IsLoop() || t4.IsLoop() || s.has(t3.U(), t3.V()) || s.has(t4.U(), t4.V()) {
			continue
		}
		s.remove(e1.U(), e1.V())
		s.remove(e1.V(), e1.U())
		s.remove(e2.U(), e2.V())
		s.remove(e2.V(), e2.U())
		s.insert(t3.U(), t3.V())
		s.insert(t3.V(), t3.U())
		s.insert(t4.U(), t4.V())
		s.insert(t4.V(), t4.U())
		s.E[i], s.E[j] = t3, t4
		stats.legal++
	}
	stats.attempted += perStep
}

func (s *adjListChain) finish()  {}
func (s *adjListChain) release() {}

func (s *adjListChain) has(u, v graph.Node) bool {
	// Query the smaller neighborhood.
	if len(s.adj[u]) > len(s.adj[v]) {
		u, v = v, u
	}
	nb := s.adj[u]
	if s.sorted {
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		return k < len(nb) && nb[k] == v
	}
	for _, w := range nb {
		if w == v {
			return true
		}
	}
	return false
}

func (s *adjListChain) remove(u, v graph.Node) {
	nb := s.adj[u]
	if s.sorted {
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		copy(nb[k:], nb[k+1:])
		s.adj[u] = nb[:len(nb)-1]
		return
	}
	for i, w := range nb {
		if w == v {
			nb[i] = nb[len(nb)-1]
			s.adj[u] = nb[:len(nb)-1]
			return
		}
	}
	panic("experiments: adjacency removal of absent edge")
}

func (s *adjListChain) insert(u, v graph.Node) {
	if s.sorted {
		nb := s.adj[u]
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		nb = append(nb, 0)
		copy(nb[k+1:], nb[k:])
		nb[k] = v
		s.adj[u] = nb
		return
	}
	s.adj[u] = append(s.adj[u], v)
}

// bucketsChain runs ES-MC sampling the two edges directly from the hash
// set by random-bucket probing (§5.3 second option). The chain is
// equivalent: a switch is an unordered pair of distinct edges plus a
// direction bit, independent of edge-list indexing; the edge array is
// kept in step through a position index.
type bucketsChain struct {
	E   []graph.Edge
	S   *hashset.Set
	src rng.Source
	pos map[graph.Edge]int
}

func newBucketsChain(g *graph.Graph, seed uint64) *bucketsChain {
	E := g.Edges()
	pos := make(map[graph.Edge]int, len(E))
	for i, e := range E {
		pos[e] = i
	}
	return &bucketsChain{E: E, S: hashset.FromEdges(E), src: rng.NewMT19937(seed), pos: pos}
}

func (s *bucketsChain) step(stats *baselineStats) {
	perStep := int64(len(s.E) / 2)
	for k := int64(0); k < perStep; k++ {
		e1 := s.S.SampleBucket(s.src)
		e2 := s.S.SampleBucket(s.src)
		if e1 == e2 {
			continue // resample counts as rejection (prob 1/m)
		}
		t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(s.src))
		if t3.IsLoop() || t4.IsLoop() || s.S.Contains(t3) || s.S.Contains(t4) {
			continue
		}
		s.S.Erase(e1)
		s.S.Erase(e2)
		s.S.Insert(t3)
		s.S.Insert(t4)
		i, j := s.pos[e1], s.pos[e2]
		delete(s.pos, e1)
		delete(s.pos, e2)
		s.E[i], s.E[j] = t3, t4
		s.pos[t3], s.pos[t4] = i, j
		stats.legal++
	}
	stats.attempted += perStep
}

func (s *bucketsChain) finish()  {}
func (s *bucketsChain) release() {}
