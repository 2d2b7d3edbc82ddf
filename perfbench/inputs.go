package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
)

// The inputs are generated here, from the workload seed, with the
// benchmark's own generators rather than gesmc's: a change to the
// program's generators must never change what the benchmark feeds it.

// newRand returns the workload's deterministic random source for one
// input stream.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// powerLawDegrees returns n degrees following P[d = k] ∝ k^-gamma on
// [1, n^{1/(gamma-1)}] (the paper's SynPld range), in random order, with
// an even sum. The degrees are the distribution's quantiles at evenly
// spaced points rather than random draws: a heavy tail makes the sum of
// n draws swing by several percent between seeds, and the benchmark's
// input size must not depend on its seed.
func powerLawDegrees(n int, gamma float64, r *rand.Rand) []int {
	dmax := min(int(math.Pow(float64(n), 1/(gamma-1))), n-1)
	cdf := make([]float64, dmax)
	sum := 0.0
	for k := 1; k <= dmax; k++ {
		sum += math.Pow(float64(k), -gamma)
		cdf[k-1] = sum
	}
	deg := make([]int, n)
	total := 0
	for i := range deg {
		k, _ := slices.BinarySearch(cdf, (float64(i)+0.5)/float64(n)*sum)
		deg[i] = min(k, dmax-1) + 1
		total += deg[i]
	}
	if total%2 == 1 {
		deg[0]++
	}
	r.Shuffle(n, func(i, j int) { deg[i], deg[j] = deg[j], deg[i] })
	return deg
}

// erasedConfiguration pairs the stubs of deg uniformly at random and
// drops loops and repeated pairs: a simple graph whose degrees follow deg
// closely. Starting the chain from an already random graph keeps the
// kernel's per-superstep cost stationary from the first timed superstep.
func erasedConfiguration(deg []int, r *rand.Rand) [][2]uint32 {
	var stubs []uint32
	for v, d := range deg {
		for range d {
			stubs = append(stubs, uint32(v))
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	keys := make([]uint64, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(u)<<32|uint64(v))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	edges := make([][2]uint32, len(keys))
	for i, k := range keys {
		edges[i] = [2]uint32{uint32(k >> 32), uint32(k)}
	}
	return edges
}

// randomArcs draws m distinct arcs (u, v), u != v, on n nodes.
func randomArcs(n, m int, r *rand.Rand) [][2]uint32 {
	seen := make(map[uint64]struct{}, m)
	arcs := make([][2]uint32, 0, m)
	for len(arcs) < m {
		u, v := uint32(r.IntN(n)), uint32(r.IntN(n))
		k := uint64(u)<<32 | uint64(v)
		if _, dup := seen[k]; u == v || dup {
			continue
		}
		seen[k] = struct{}{}
		arcs = append(arcs, [2]uint32{u, v})
	}
	return arcs
}

// edgeListText renders edges as the "n m" headed text edge list
// gesmc.ReadGraph and gesmc.ReadArcList parse.
func edgeListText(n int, edges [][2]uint32) []byte {
	b := make([]byte, 0, 16*len(edges))
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(edges)), 10)
	b = append(b, '\n')
	for _, e := range edges {
		b = strconv.AppendUint(b, uint64(e[0]), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(e[1]), 10)
		b = append(b, '\n')
	}
	return b
}

// degreesOf returns the degree sequence of edges on n nodes; for arcs
// (directed) it returns the out- and in-degrees.
func degreesOf(n int, edges [][2]uint32, directed bool) (out, in []int) {
	out = make([]int, n)
	in = out
	if directed {
		in = make([]int, n)
	}
	for _, e := range edges {
		out[e[0]]++
		in[e[1]]++
	}
	return out, in
}

// digest is an FNV-1a hash of the canonical (sorted; endpoint-ordered
// when undirected) edge list, so it names the sampled graph and not the
// order the program happens to list its edges in.
func digest(n int, edges [][2]uint32, directed bool) uint64 {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if !directed && u > v {
			u, v = v, u
		}
		keys[i] = uint64(u)<<32 | uint64(v)
	}
	slices.Sort(keys)
	h := fnv.New64a()
	var buf bytes.Buffer
	buf.Grow(8 * (len(keys) + 1))
	binary.Write(&buf, binary.LittleEndian, uint64(n))
	binary.Write(&buf, binary.LittleEndian, keys)
	h.Write(buf.Bytes())
	return h.Sum64()
}
