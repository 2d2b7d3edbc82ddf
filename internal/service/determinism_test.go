package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gesmc"
	"gesmc/wire"
)

// seedFixedLines reads an NDJSON sample stream and re-encodes every line
// with its wall-clock and scheduler-dependent fields zeroed: timings,
// round counts (which depend on how a real parallel scheduler
// interleaves decisions), the trace ID, and the backend identity. What
// remains — index, cursor, edges, switch counters — is the seed-fixed
// content the determinism contract covers, byte for byte.
func seedFixedLines(t *testing.T, r io.Reader) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ln wire.Line
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatal(err)
		}
		if ln.Error != "" {
			t.Fatalf("stream error line: %s (%s)", ln.Error, ln.Code)
		}
		if st := ln.Stats; st != nil {
			st.DurationNS, st.FirstRoundNS, st.LaterRoundsNS = 0, 0, 0
			st.AvgRounds, st.MaxRounds, st.LateRoundsFraction = 0, 0, 0
			st.TraceID, st.Backend = "", ""
		}
		b, err := json.Marshal(ln)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryServedAlgorithmIsSeedDeterministic: pooling, resume cursors,
// and coordinator failover all assume that one (target, algorithm,
// seed) gives one chain. For every algorithm name the service accepts,
// two identical seeded workers=2 requests against a cold pool must
// stream byte-identical sample lines; the paper's experiment-only baselines are refused with
// a typed 400 instead of being served.
func TestEveryServedAlgorithmIsSeedDeterministic(t *testing.T) {
	svc := New(Config{WorkerBudget: 4, NoPooling: true})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	degrees := make([]int, 60)
	for i := range degrees {
		degrees[i] = 3 // 3-regular: inside the exact tier's regime too
	}
	for _, alg := range gesmc.Algorithms() {
		name := alg.String()
		if _, err := gesmc.ParseAlgorithm(name); err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			req := wire.SampleRequest{Degrees: degrees, Algorithm: name,
				Workers: 2, Seed: 7, Samples: 3, BurnIn: 4, Thinning: 2}
			if alg == gesmc.Exact {
				req.BurnIn, req.Thinning = 0, 0
			}
			var streams [2][]string
			for i := range streams {
				resp := postSample(t, ts.URL, req)
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					t.Fatalf("status %d", resp.StatusCode)
				}
				streams[i] = seedFixedLines(t, resp.Body)
				resp.Body.Close()
			}
			if len(streams[0]) != 3 {
				t.Fatalf("%d sample lines, want 3", len(streams[0]))
			}
			for k := range streams[0] {
				if k >= len(streams[1]) || streams[0][k] != streams[1][k] {
					t.Fatalf("line %d differs between identical seeded requests", k)
				}
			}
		})
	}

	for _, name := range []string{"NaiveParES", "AdjListES", "AdjSortES"} {
		resp := postSample(t, ts.URL, wire.SampleRequest{Degrees: degrees, Algorithm: name, Seed: 7, Samples: 1})
		var body wire.Error
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || body.Code != "bad_request" ||
			!strings.Contains(body.Error, "algorithm") {
			t.Fatalf("%s: status %d, body %+v; want a 400 bad_request naming algorithm",
				name, resp.StatusCode, body)
		}
	}
}
