package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"gesmc/wire"
)

// expect is what every sample of a request must satisfy: the target's
// node count, its degree sequence (or out/in sequences), and simplicity.
type expect struct {
	n        int
	directed bool
	out, in  []int // in aliases out for undirected targets
}

func expectFor(n int, edges [][2]uint32, directed bool) *expect {
	out, in := degreesOf(n, edges, directed)
	return &expect{n: n, directed: directed, out: out, in: in}
}

// check is the correctness gate on one decoded sample line.
func (e *expect) check(ln *wire.Line) error {
	if ln.Nodes != e.n || ln.Directed != e.directed {
		return fmt.Errorf("line %d: nodes=%d directed=%v, want %d %v", ln.Index, ln.Nodes, ln.Directed, e.n, e.directed)
	}
	g, dg, err := ln.Graph()
	if err != nil {
		return fmt.Errorf("line %d: %w", ln.Index, err)
	}
	var out, in []int
	if g != nil {
		err, out, in = g.CheckSimple(), g.Degrees(), g.Degrees()
	} else {
		err, out, in = dg.CheckSimple(), dg.OutDegrees(), dg.InDegrees()
	}
	switch {
	case err != nil:
		return fmt.Errorf("line %d: %w", ln.Index, err)
	case !slices.Equal(out, e.out) || !slices.Equal(in, e.in):
		return fmt.Errorf("line %d: degree sequence differs from the target's", ln.Index)
	}
	return nil
}

// opError is a failed operation with the cause it is counted under.
type opError struct {
	cause string
	err   error
}

func (e *opError) Error() string { return e.cause + ": " + e.err.Error() }

// lineObs is one received sample line as the client saw it.
type lineObs struct {
	at     time.Time // when the line's last byte was read
	line   wire.Line
	bytes  int
	decode time.Duration // traced runs only
	gate   time.Duration // traced runs only: the correctness gate
	encode time.Duration // traced runs only: re-encoding the line
	snapMs float64       // traced runs only: Clone of the decoded graph
}

// consumeStream reads an NDJSON sample stream, decodes every line and
// passes it through the correctness gate, calling fn per good line. A
// malformed line, an in-band error line or a gate failure ends the
// stream with an *opError; so does a stream without exactly samples
// sample lines.
func consumeStream(r io.Reader, e *expect, samples int, traced bool, fn func(*lineObs)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	got := 0
	for sc.Scan() {
		obs := lineObs{at: time.Now(), bytes: len(sc.Bytes()) + 1}
		if err := json.Unmarshal(sc.Bytes(), &obs.line); err != nil {
			return &opError{"decode", err}
		}
		if traced {
			obs.decode = time.Since(obs.at)
		}
		if obs.line.Error != "" {
			return &opError{"in_band", fmt.Errorf("%s (%s)", obs.line.Error, obs.line.Code)}
		}
		if obs.line.Stats == nil {
			return &opError{"decode", fmt.Errorf("line %d carries no stats", obs.line.Index)}
		}
		t := time.Now()
		if err := e.check(&obs.line); err != nil {
			return &opError{"gate", err}
		}
		if traced {
			obs.gate = time.Since(t)
			probeLine(&obs)
		}
		got++
		fn(&obs)
	}
	if err := sc.Err(); err != nil {
		return &opError{"transport", err}
	}
	if got != samples {
		return &opError{"line_count", fmt.Errorf("%d sample lines, want %d", got, samples)}
	}
	return nil
}

// probeLine times the wire encode of the line and a snapshot (Clone) of
// its graph: the service performs both per streamed sample, inside its
// stream, where the benchmark cannot time them.
func probeLine(obs *lineObs) {
	t := time.Now()
	_ = wire.EncodeLine(io.Discard, obs.line) // io.Discard never fails
	obs.encode = time.Since(t)
	g, dg, _ := obs.line.Graph() // the gate already built it once
	t = time.Now()
	if g != nil {
		g.Clone()
	} else {
		dg.Clone()
	}
	obs.snapMs = msSince(t, time.Now())
}
