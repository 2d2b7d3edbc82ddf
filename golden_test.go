package gesmc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// goldenCase is one seed-fixed chain run whose final edge list (and
// switch counters) TestGoldenDigests pins.
type goldenCase struct {
	name   string
	target func(t *testing.T) Target
	alg    Algorithm
	cons   []Constraint
	// steps advances the chain in these increments; several entries
	// pin that a resumed split equals one uninterrupted run.
	steps []int
	// escapes demands Stats.EscapeMoves > 0, so the case exercises the
	// connectivity escape drawing from the chain's own RNG stream.
	escapes bool
}

// goldenDigests were generated once and must never change: every
// refactor of the engines has to keep seed-fixed outputs bit-identical
// (the contract engine pooling, resume cursors, and failover rely on).
var goldenDigests = map[string]string{
	"powerlaw/SeqES/w=1":                "69846b40365a48d4ae0bb8a2 acc=10756/10944",
	"powerlaw/SeqES/w=2":                "69846b40365a48d4ae0bb8a2 acc=10756/10944",
	"gnp/SeqES/w=1":                     "bffa706d167f66618f9ff8e8 acc=3496/3968",
	"gnp/SeqES/w=2":                     "bffa706d167f66618f9ff8e8 acc=3496/3968",
	"gnp/forbidden/SeqES/w=1":           "01290c909d4cbbfdc2e0dea6 acc=3491/3968",
	"gnp/forbidden/SeqES/w=2":           "01290c909d4cbbfdc2e0dea6 acc=3491/3968",
	"grid/connected/SeqES/w=1":          "36f9055a966056b43b8b8079 acc=454/504",
	"grid/connected/SeqES/w=2":          "36f9055a966056b43b8b8079 acc=454/504",
	"powerlaw/SeqGlobalES/w=1":          "fa47333b49e21d6825731456 acc=10760/10944",
	"powerlaw/SeqGlobalES/w=2":          "fa47333b49e21d6825731456 acc=10760/10944",
	"gnp/SeqGlobalES/w=1":               "256130a6526bea968bde3ec8 acc=3494/3968",
	"gnp/SeqGlobalES/w=2":               "256130a6526bea968bde3ec8 acc=3494/3968",
	"gnp/forbidden/SeqGlobalES/w=1":     "cb5cf7807ceba2664b208347 acc=3489/3968",
	"gnp/forbidden/SeqGlobalES/w=2":     "cb5cf7807ceba2664b208347 acc=3489/3968",
	"grid/connected/SeqGlobalES/w=1":    "bdf545c10cb807539dd6e8c3 acc=461/504",
	"grid/connected/SeqGlobalES/w=2":    "bdf545c10cb807539dd6e8c3 acc=461/504",
	"powerlaw/ParES/w=1":                "69846b40365a48d4ae0bb8a2 acc=10756/10944",
	"powerlaw/ParES/w=2":                "69846b40365a48d4ae0bb8a2 acc=10756/10944",
	"gnp/ParES/w=1":                     "bffa706d167f66618f9ff8e8 acc=3496/3968",
	"gnp/ParES/w=2":                     "bffa706d167f66618f9ff8e8 acc=3496/3968",
	"gnp/forbidden/ParES/w=1":           "01290c909d4cbbfdc2e0dea6 acc=3491/3968",
	"gnp/forbidden/ParES/w=2":           "01290c909d4cbbfdc2e0dea6 acc=3491/3968",
	"grid/connected/ParES/w=1":          "36f9055a966056b43b8b8079 acc=454/504",
	"grid/connected/ParES/w=2":          "36f9055a966056b43b8b8079 acc=454/504",
	"powerlaw/ParGlobalES/w=1":          "72329ad829039f5d02b3d7a2 acc=10734/10944",
	"powerlaw/ParGlobalES/w=2":          "72329ad829039f5d02b3d7a2 acc=10734/10944",
	"gnp/ParGlobalES/w=1":               "fbe88fb11ba469356c801b8e acc=3479/3968",
	"gnp/ParGlobalES/w=2":               "fbe88fb11ba469356c801b8e acc=3479/3968",
	"gnp/forbidden/ParGlobalES/w=1":     "cb8e44e3b6be664c72bc0311 acc=3447/3968",
	"gnp/forbidden/ParGlobalES/w=2":     "cb8e44e3b6be664c72bc0311 acc=3447/3968",
	"grid/connected/ParGlobalES/w=1":    "48fe78164b56673b75fb7589 acc=468/504",
	"grid/connected/ParGlobalES/w=2":    "48fe78164b56673b75fb7589 acc=468/504",
	"digraph/SeqES/w=1":                 "4f9f384e5e5194509f90b8de acc=6216/6400",
	"digraph/SeqES/w=2":                 "4f9f384e5e5194509f90b8de acc=6216/6400",
	"digraph/forbidden/SeqES/w=1":       "ef90cbb5852c6d66ed9c4a36 acc=6213/6400",
	"digraph/forbidden/SeqES/w=2":       "ef90cbb5852c6d66ed9c4a36 acc=6213/6400",
	"digraph/connected/SeqES/w=1":       "8ef26626e70555924553c7a6 acc=338/360",
	"digraph/connected/SeqES/w=2":       "8ef26626e70555924553c7a6 acc=338/360",
	"digraph/SeqGlobalES/w=1":           "2325d3c49baa4085824df1e6 acc=6221/6400",
	"digraph/SeqGlobalES/w=2":           "2325d3c49baa4085824df1e6 acc=6221/6400",
	"digraph/forbidden/SeqGlobalES/w=1": "e9194ab7c15ea58095d722c6 acc=6213/6400",
	"digraph/forbidden/SeqGlobalES/w=2": "e9194ab7c15ea58095d722c6 acc=6213/6400",
	"digraph/connected/SeqGlobalES/w=1": "3690c859de3360a063db67dc acc=334/360",
	"digraph/connected/SeqGlobalES/w=2": "3690c859de3360a063db67dc acc=334/360",
	"digraph/ParGlobalES/w=1":           "a0e346895dbd12ffccd67986 acc=6195/6400",
	"digraph/ParGlobalES/w=2":           "a0e346895dbd12ffccd67986 acc=6195/6400",
	"digraph/forbidden/ParGlobalES/w=1": "13a6c34f718701ffe302ef1f acc=6190/6400",
	"digraph/forbidden/ParGlobalES/w=2": "13a6c34f718701ffe302ef1f acc=6190/6400",
	"digraph/connected/ParGlobalES/w=1": "6a6c5cc56c79cf173824ceab acc=334/360",
	"digraph/connected/ParGlobalES/w=2": "6a6c5cc56c79cf173824ceab acc=334/360",
	"dipath/connected/SeqES/w=1":        "38c448186ad0f648901d209d acc=0/88",
	"dipath/connected/SeqES/w=2":        "38c448186ad0f648901d209d acc=0/88",
	"powerlaw/resumed/ParGlobalES/w=1":  "72329ad829039f5d02b3d7a2 acc=10734/10944",
	"powerlaw/resumed/ParGlobalES/w=2":  "72329ad829039f5d02b3d7a2 acc=10734/10944",
	"digraph/resumed/ParGlobalES/w=1":   "a0e346895dbd12ffccd67986 acc=6195/6400",
	"digraph/resumed/ParGlobalES/w=2":   "a0e346895dbd12ffccd67986 acc=6195/6400",
}

// splitmix is a tiny self-contained generator for the golden targets,
// so the fixtures do not depend on any package RNG.
type splitmix uint64

func (s *splitmix) next(n int) uint32 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return uint32((z ^ z>>31) % uint64(n))
}

// goldenDigraph is a random simple digraph on n nodes with m arcs; with
// cycle set it additionally contains the directed cycle 0→1→…→n-1→0,
// so it is weakly connected.
func goldenDigraph(t *testing.T, n, m int, cycle bool, seed uint64) *DiGraph {
	t.Helper()
	seen := map[[2]uint32]bool{}
	var arcs [][2]uint32
	add := func(u, v uint32) {
		a := [2]uint32{u, v}
		if u != v && !seen[a] {
			seen[a] = true
			arcs = append(arcs, a)
		}
	}
	if cycle {
		for v := 0; v < n; v++ {
			add(uint32(v), uint32((v+1)%n))
		}
	}
	src := splitmix(seed)
	for len(arcs) < m {
		add(src.next(n), src.next(n))
	}
	g, err := NewDiGraph(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenDigraphPath is the directed path 0→1→…→n-1: every arc is a
// bridge, so a Connected chain stalls and escapes constantly.
func goldenDigraphPath(t *testing.T, n int) *DiGraph {
	t.Helper()
	arcs := make([][2]uint32, n-1)
	for v := range arcs {
		arcs[v] = [2]uint32{uint32(v), uint32(v + 1)}
	}
	g, err := NewDiGraph(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenPowerLaw(t *testing.T) Target {
	g, err := GeneratePowerLaw(3000, 2.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenGNP(*testing.T) Target  { return GenerateGNP(200, 0.05, 3) }
func goldenGrid(*testing.T) Target { return GenerateGrid(8, 9) }

// goldenNonEdges returns k node pairs absent from g, for ForbiddenEdges.
func goldenNonEdges(g *Graph, k int) [][2]uint32 {
	var out [][2]uint32
	for u := uint32(0); len(out) < k; u++ {
		for v := u + 1; v < uint32(g.N()) && len(out) < k; v += 7 {
			if !g.HasEdge(u, v) {
				out = append(out, [2]uint32{u, v})
			}
		}
	}
	return out
}

// goldenNonArcs returns k arcs absent from g, for ForbiddenEdges.
func goldenNonArcs(g *DiGraph, k int) [][2]uint32 {
	have := map[[2]uint32]bool{}
	for _, a := range g.Arcs() {
		have[a] = true
	}
	var out [][2]uint32
	for u := uint32(0); len(out) < k; u++ {
		for v := uint32(1); v < uint32(g.N()) && len(out) < k; v += 5 {
			if u != v && !have[[2]uint32{u, v}] {
				out = append(out, [2]uint32{u, v})
			}
		}
	}
	return out
}

func goldenCases(t *testing.T) []goldenCase {
	dir := func(t *testing.T) Target { return goldenDigraph(t, 400, 1600, false, 5) }
	dirConn := func(t *testing.T) Target { return goldenDigraph(t, 60, 90, true, 9) }
	var cases []goldenCase
	undirected := []Algorithm{SeqES, SeqGlobalES, ParES, ParGlobalES}
	directed := []Algorithm{SeqES, SeqGlobalES, ParGlobalES}
	for _, alg := range undirected {
		cases = append(cases,
			goldenCase{name: "powerlaw", target: goldenPowerLaw, alg: alg, steps: []int{8}},
			goldenCase{name: "gnp", target: goldenGNP, alg: alg, steps: []int{8}},
			goldenCase{name: "gnp/forbidden", alg: alg, steps: []int{8},
				target: goldenGNP,
				cons:   []Constraint{ForbiddenEdges(goldenNonEdges(goldenGNP(t).(*Graph), 40))}},
			goldenCase{name: "grid/connected", target: goldenGrid, alg: alg, steps: []int{8},
				cons: []Constraint{Connected()}},
		)
	}
	for _, alg := range directed {
		cases = append(cases,
			goldenCase{name: "digraph", target: dir, alg: alg, steps: []int{8}},
			goldenCase{name: "digraph/forbidden", alg: alg, steps: []int{8},
				target: dir,
				cons: []Constraint{ForbiddenEdges(goldenNonArcs(
					goldenDigraph(t, 400, 1600, false, 5), 60))}},
			goldenCase{name: "digraph/connected", target: dirConn, alg: alg, steps: []int{8},
				cons: []Constraint{Connected()}},
		)
	}
	cases = append(cases,
		goldenCase{name: "dipath/connected", alg: SeqES, steps: []int{8}, escapes: true,
			target: func(t *testing.T) Target { return goldenDigraphPath(t, 24) },
			cons:   []Constraint{Connected()}},
		goldenCase{name: "powerlaw/resumed", target: goldenPowerLaw, alg: ParGlobalES, steps: []int{3, 5}},
		goldenCase{name: "digraph/resumed", target: dir, alg: ParGlobalES, steps: []int{3, 5}},
	)
	return cases
}

// edgeDigest hashes the target's edge list in list order.
func edgeDigest(t Target) string {
	var pairs [][2]uint32
	switch g := t.(type) {
	case *Graph:
		pairs = g.Edges()
	case *DiGraph:
		pairs = g.Arcs()
	}
	h := sha256.New()
	var buf [8]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(buf[:4], p[0])
		binary.LittleEndian.PutUint32(buf[4:], p[1])
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// runGolden compiles a fresh sampler for c at the given worker count,
// advances it by steps, and returns the digest and switch counters.
func runGolden(t *testing.T, c goldenCase, workers int, steps []int) string {
	t.Helper()
	target := c.target(t)
	opts := []Option{WithAlgorithm(c.alg), WithWorkers(workers), WithSeed(42)}
	if len(c.cons) > 0 {
		opts = append(opts, WithConstraint(c.cons...))
	}
	s, err := NewSampler(target, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var escapes, accepted, attempted int64
	for _, k := range steps {
		st, err := s.Step(k)
		if err != nil {
			t.Fatal(err)
		}
		escapes += st.EscapeMoves
		accepted += st.Accepted
		attempted += st.Attempted
	}
	if c.escapes && escapes == 0 {
		t.Fatal("no escape move fired")
	}
	return fmt.Sprintf("%s acc=%d/%d", edgeDigest(target), accepted, attempted)
}

// TestGoldenDigests pins the seed-fixed output of every served switching
// chain for both target classes — unconstrained, with a local veto, and
// with Connected — at workers 1 and 2, plus resumed splits
// (Step(3)+Step(5) must equal one Step(8) of the same case).
func TestGoldenDigests(t *testing.T) {
	for _, c := range goldenCases(t) {
		for _, w := range []int{1, 2} {
			key := fmt.Sprintf("%s/%v/w=%d", c.name, c.alg, w)
			t.Run(key, func(t *testing.T) {
				got := runGolden(t, c, w, c.steps)
				if want, ok := goldenDigests[key]; !ok || got != want {
					t.Errorf("%q: got %q, want %q", key, got, want)
				}
				if len(c.steps) > 1 {
					total := 0
					for _, k := range c.steps {
						total += k
					}
					if whole := runGolden(t, c, w, []int{total}); whole != got {
						t.Errorf("resumed split %v = %q, one Step(%d) = %q", c.steps, got, total, whole)
					}
				}
			})
		}
	}
}
