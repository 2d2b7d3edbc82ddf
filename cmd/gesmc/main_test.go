package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gesmc"
	"gesmc/internal/service"
	"gesmc/wire"
)

func TestGenerateSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		wantN   int
		wantErr bool
	}{
		{"gnp:n=100,p=0.1", 100, false},
		{"pld:n=256,gamma=2.5", 256, false},
		{"reg:n=32,d=4", 32, false},
		{"grid:r=4,c=5", 20, false},
		{"gnp:n=100", 0, true},     // missing p
		{"pld:gamma=2.5", 0, true}, // missing n
		{"blah:n=10", 0, true},     // unknown generator
		{"gnp:n=abc,p=0.1", 0, true},
		{"gnp:n", 0, true}, // malformed kv
	}
	for _, c := range cases {
		g, err := generate(c.spec, 1)
		if c.wantErr {
			if err == nil {
				t.Errorf("generate(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("generate(%q): %v", c.spec, err)
			continue
		}
		if g.N() != c.wantN {
			t.Errorf("generate(%q): n=%d, want %d", c.spec, g.N(), c.wantN)
		}
	}
}

func TestLoadTargetFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tg, err := loadTarget(path, "", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if g := tg.(*gesmc.Graph); g.M() != 2 {
		t.Fatalf("m=%d", g.M())
	}
	if _, err := loadTarget(path, "gnp:n=10,p=0.1", 1, false); err == nil {
		t.Fatal("-in and -gen together accepted")
	}
	if _, err := loadTarget("", "", 1, false); err == nil {
		t.Fatal("no input accepted")
	}
	if _, err := loadTarget(filepath.Join(dir, "missing.txt"), "", 1, false); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRemoteRequestShape: the -server path ships the loaded target as
// an explicit edge list and mirrors the local flag semantics
// (-supersteps overrides -swaps, directed targets ship arcs).
func TestRemoteRequestShape(t *testing.T) {
	g := gesmc.GenerateGrid(2, 3)
	req := remoteRequest(g, "ParGlobalES", "mcmc", 2, 7, 4, 0, 3, 10, false)
	if req.Nodes != g.N() || len(req.Edges) != g.M() || req.Directed {
		t.Fatalf("undirected request: %+v", req)
	}
	if req.Samples != 4 || req.Seed != 7 || req.Workers != 2 || req.Thinning != 3 || req.SwapsPerEdge != 10 {
		t.Fatalf("flags lost: %+v", req)
	}
	// Explicit burn-in zeroes SwapsPerEdge, exactly like the local path.
	req = remoteRequest(g, "SeqES", "mcmc", 1, 1, 1, 50, 0, 10, true)
	if req.BurnIn != 50 || req.SwapsPerEdge != 0 || !req.Connected {
		t.Fatalf("burn-in override: %+v", req)
	}

	// -uniformity exact ships the uniformity field and strips the chain
	// schedule (the CLI defaults would otherwise read as a schedule).
	req = remoteRequest(g, "Exact", "exact", 1, 7, 4, 0, 3, 10, false)
	if req.Uniformity != "exact" || req.BurnIn != 0 || req.Thinning != 0 || req.SwapsPerEdge != 0 {
		t.Fatalf("exact request shape: %+v", req)
	}

	dg, err := gesmc.NewDiGraph(3, [][2]uint32{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	req = remoteRequest(dg, "SeqGlobalES", "mcmc", 1, 1, 1, 0, 0, 10, false)
	if !req.Directed || req.Nodes != 3 || len(req.Edges) != 3 {
		t.Fatalf("directed request: %+v", req)
	}

	// The shipped request round-trips through request validation: a
	// daemon accepts what the CLI sends.
	if _, err := service.PoolKey(remoteRequest(g, "ParGlobalES", "mcmc", 2, 7, 4, 0, 0, 10, false)); err != nil {
		t.Fatalf("daemon rejects CLI request: %v", err)
	}
}

// TestRunRemoteAgainstDaemon drives the full -server path against a
// real in-process daemon: NDJSON out, edge-list out with a %d pattern,
// and the bit-identity of remote samples with an in-process run of the
// same seeded request.
func TestRunRemoteAgainstDaemon(t *testing.T) {
	svc := service.New(service.Config{ID: "d0", WorkerBudget: 4})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	g := gesmc.GenerateGrid(3, 3)
	req := remoteRequest(g, "ParGlobalES", "mcmc", 2, 7, 3, 0, 0, 10, false)

	// NDJSON sink: one line per sample, backend identity stamped.
	dir := t.TempDir()
	ndPath := filepath.Join(dir, "out.ndjson")
	if err := runRemote(ts.URL, req, "ndjson", ndPath, false, 2); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ndPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var remote []wire.Line
	if err := wire.DecodeLines(f, func(ln wire.Line) error {
		remote = append(remote, ln)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(remote) != 3 {
		t.Fatalf("%d ndjson lines", len(remote))
	}
	for _, ln := range remote {
		if ln.Stats == nil || ln.Stats.Backend != "d0" {
			t.Fatalf("line without backend identity: %+v", ln)
		}
	}

	// Bit-identity with the in-process engine for the same request.
	sampler, err := gesmc.NewSampler(g, gesmc.WithAlgorithm(gesmc.ParGlobalES),
		gesmc.WithWorkers(2), gesmc.WithSeed(7), gesmc.WithSwapsPerEdge(10))
	if err != nil {
		t.Fatal(err)
	}
	defer sampler.Close()
	i := 0
	for smp := range sampler.Ensemble(context.Background(), 3) {
		if smp.Err != nil {
			t.Fatal(smp.Err)
		}
		want := wire.FromSample(smp)
		got := remote[i]
		if got.Index != want.Index || got.Nodes != want.Nodes ||
			len(got.Edges) != len(want.Edges) {
			t.Fatalf("sample %d differs: %+v vs %+v", i, got, want)
		}
		for j := range want.Edges {
			if got.Edges[j] != want.Edges[j] {
				t.Fatalf("sample %d edge %d: %v vs %v", i, j, got.Edges[j], want.Edges[j])
			}
		}
		i++
	}

	// Edge-list sink with a %d pattern writes one file per sample.
	pat := filepath.Join(dir, "s-%d.txt")
	if err := runRemote(ts.URL, req, "edgelist", pat, false, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("s-%d.txt", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.TrimSpace(string(b))) == 0 {
			t.Fatalf("sample file %d empty", i)
		}
	}
	// Multi-sample edge lists without %d are rejected up front.
	if err := runRemote(ts.URL, req, "edgelist", filepath.Join(dir, "flat.txt"), false, 2); err == nil {
		t.Fatal("multi-sample edgelist without an index pattern accepted")
	}
	// A server-side rejection surfaces as an error, not a silent exit.
	bad := remoteRequest(g, "ParGlobalES", "mcmc", 1, 1, 1, 0, 0, 10, false)
	bad.Degrees = []int{3, 1} // conflicting specs → 400
	if err := runRemote(ts.URL, bad, "ndjson", filepath.Join(dir, "bad.ndjson"), false, 2); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestLoadTargetDirected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	// Both orientations survive in a directed read.
	if err := os.WriteFile(path, []byte("% directed\n0 1\n1 0\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tg, err := loadTarget(path, "", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dg, ok := tg.(*gesmc.DiGraph)
	if !ok || dg.M() != 3 {
		t.Fatalf("directed load: %T m=%d", tg, dg.M())
	}
	if _, err := loadTarget("", "gnp:n=10,p=0.1", 1, true); err == nil {
		t.Fatal("-directed with -gen accepted")
	}
	if _, err := loadTarget("", "", 1, true); err == nil {
		t.Fatal("-directed without input accepted")
	}
}

// TestExitCodes pins the -server exit-code contract: 2 = fix the
// request, 3 = backend fault, 4 = backpressure, 5 = the caller's own
// deadline, 1 = anything else.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{&service.RequestError{Field: "degrees", Reason: "odd sum"}, 2},
		{&service.BackendError{Backend: "x", Op: "stream", Err: fmt.Errorf("cut")}, 3},
		{service.ErrOverloaded, 4},
		{service.ErrShuttingDown, 4},
		{context.DeadlineExceeded, 5},
		{context.Canceled, 5},
		{fmt.Errorf("mystery"), 1},
		{&service.StreamError{Line: wire.Line{Error: "x", Code: "bad_request"}}, 2},
		{&service.StreamError{Line: wire.Line{Error: "x", Code: "backend"}}, 3},
		{&service.StreamError{Line: wire.Line{Error: "x", Code: "overloaded"}}, 4},
		{&service.StreamError{Line: wire.Line{Error: "x", Code: "deadline"}}, 5},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
