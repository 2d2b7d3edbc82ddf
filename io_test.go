package gesmc

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteEdgeListRoundTripUndirected(t *testing.T) {
	g, err := NewGraph(5, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Fatalf("round trip lost edge %v", e)
		}
	}
}

func TestWriteEdgeListRoundTripDirected(t *testing.T) {
	// Both orientations of (0,1) are distinct arcs and must survive.
	dg, err := NewDiGraph(4, [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, dg); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "% directed\n") {
		t.Fatalf("directed file lacks marker: %q", buf.String()[:20])
	}
	back, err := ReadArcList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != dg.N() || back.M() != dg.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", back.N(), back.M(), dg.N(), dg.M())
	}
	want := map[[2]uint32]bool{}
	for _, a := range dg.Arcs() {
		want[a] = true
	}
	for _, a := range back.Arcs() {
		if !want[a] {
			t.Fatalf("round trip invented arc %v", a)
		}
		delete(want, a)
	}
	if len(want) != 0 {
		t.Fatalf("round trip lost arcs: %v", want)
	}
}

func TestReadEdgeListRejectsDirectedMarker(t *testing.T) {
	dg, err := NewDiGraph(3, [][2]uint32{{0, 1}, {1, 0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEdgeList(&buf); err == nil {
		t.Fatal("undirected reader accepted a '% directed' arc list")
	}
	// An ordinary '%' comment is still tolerated.
	g, err := ReadEdgeList(strings.NewReader("% netrep export\n0 1\n1 2\n"))
	if err != nil || g.M() != 2 {
		t.Fatalf("comment-led edge list: g=%v err=%v", g, err)
	}
}

func TestReadArcListLoose(t *testing.T) {
	in := "# comment\n% directed\n0 1\n0 1\n2 2\n1 3\n"
	dg, err := ReadArcList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// duplicate (0,1) and the loop (2,2) are dropped; node 2 still
	// raises the inferred node count.
	if dg.N() != 4 || dg.M() != 2 {
		t.Fatalf("n=%d m=%d, want n=4 m=2", dg.N(), dg.M())
	}
}

func TestDirectedSamplerFromArcList(t *testing.T) {
	// The marker line keeps a directed file usable end to end: read,
	// randomize, write, re-read.
	dg, err := FromInOutDegrees([]int{2, 1, 1, 0}, []int{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArcList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(back, WithAlgorithm(ParGlobalES), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(4); err != nil {
		t.Fatal(err)
	}
	if err := back.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

// edgeListSeeds are the fuzz seeds of both readers: headered, loose,
// commented, marked-directed, and malformed inputs.
var edgeListSeeds = []string{
	"4 3\n0 1\n1 2\n2 3\n",
	"% directed\n3 3\n0 1\n1 0\n1 2\n",
	"# comment\n0 1\n1 0\n2 2\n0 1\n",
	"5 0\n",
	"0 1 17\n% x\n\n3 4\n",
	"1\n",
	"-1 2\n",
	"268435455 0\n",
	"99999999999999999999 1\n",
}

// FuzzReadEdgeList: the undirected reader never panics, and a parse
// that succeeds round-trips through WriteEdgeList to the same node
// count and edge list.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range edgeListSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading the written list: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
		}
		want, got := g.Edges(), back.Edges()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round trip: edge %d is %v, want %v", i, got[i], want[i])
			}
		}
	})
}

// FuzzReadArcList is FuzzReadEdgeList for the directed reader.
func FuzzReadArcList(f *testing.F) {
	for _, s := range edgeListSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadArcList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadArcList(&buf)
		if err != nil {
			t.Fatalf("re-reading the written list: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
		}
		want, got := g.Arcs(), back.Arcs()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round trip: arc %d is %v, want %v", i, got[i], want[i])
			}
		}
	})
}
