package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gesmc"
)

func TestLineRoundTrip(t *testing.T) {
	g, err := gesmc.NewGraph(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	smp := gesmc.Sample{Index: 3, Graph: g, Stats: gesmc.Stats{Algorithm: "ParGlobalES", Supersteps: 7}}
	var buf bytes.Buffer
	if err := EncodeLine(&buf, FromSample(smp)); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("one line expected, got %d newlines", n)
	}
	var got []Line
	if err := DecodeLines(&buf, func(ln Line) error { got = append(got, ln); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Index != 3 || got[0].Stats == nil || got[0].Stats.Supersteps != 7 {
		t.Fatalf("decoded %+v", got)
	}
	back, _, err := got[0].Graph()
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.M() != 3 {
		t.Fatalf("rebuilt n=%d m=%d", back.N(), back.M())
	}
}

func TestLineDirected(t *testing.T) {
	dg, err := gesmc.NewDiGraph(3, [][2]uint32{{0, 1}, {1, 0}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ln := FromSample(gesmc.Sample{DiGraph: dg})
	if !ln.Directed || len(ln.Edges) != 3 {
		t.Fatalf("directed line: %+v", ln)
	}
	_, back, err := ln.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || back.M() != 3 {
		t.Fatalf("rebuilt digraph: %+v", back)
	}
}

func TestLineError(t *testing.T) {
	ln := FromSample(gesmc.Sample{Index: 2, Err: gesmc.ErrClosed})
	if ln.Error == "" || ln.Stats != nil || len(ln.Edges) != 0 {
		t.Fatalf("error line: %+v", ln)
	}
}

// FuzzDecodeLines: the NDJSON consumer never panics on a hostile
// stream; every line it hands out re-encodes to a fixed point, and
// rebuilding its graph either fails or keeps every edge.
func FuzzDecodeLines(f *testing.F) {
	f.Add(`{"index":0,"cursor":1,"nodes":4,"edges":[[0,1],[1,2]],"stats":{"algorithm":"ParGlobalES","supersteps":3}}` + "\n")
	f.Add(`{"index":1,"nodes":3,"directed":true,"edges":[[0,1],[1,0]]}` + "\n" + `{"index":2,"error":"boom","code":"internal"}`)
	f.Add(`{"index":0,"edges":[[0,0]]}{"index":1}`)
	f.Add(`{"nodes":-1,"edges":[[5,1]]}`)
	f.Add(`{"index":`)
	f.Add(`[1,2]`)
	f.Fuzz(func(t *testing.T, in string) {
		_ = DecodeLines(strings.NewReader(in), func(ln Line) error {
			var first, second bytes.Buffer
			if err := EncodeLine(&first, ln); err != nil {
				t.Fatalf("re-encoding a decoded line: %v", err)
			}
			var again Line
			if err := json.Unmarshal(first.Bytes(), &again); err != nil {
				t.Fatalf("decoding a re-encoded line: %v", err)
			}
			if err := EncodeLine(&second, again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("encoding is not a fixed point:\n%s%s", first.Bytes(), second.Bytes())
			}
			g, dg, err := ln.Graph()
			switch {
			case err != nil:
			case g != nil && g.M() != len(ln.Edges), dg != nil && dg.M() != len(ln.Edges):
				t.Fatalf("rebuilt graph dropped edges of %+v", ln)
			}
			return nil
		})
	})
}
