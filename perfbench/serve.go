package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"gesmc"
	"gesmc/internal/service"
	"gesmc/internal/telemetry"
	"gesmc/wire"
)

// server is the service under test: the production-default
// service.Config (telemetry on, request logs discarded) behind
// service.NewHandler on an in-process loopback listener, and one client
// that holds one connection.
type server struct {
	svc    *service.Service
	http   *http.Server
	served chan error
	url    string
	client *http.Client
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{})
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: service.NewHandler(svc)},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/sample",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the client, the listener and the service, and waits for
// the serving goroutine to return.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Shutdown(ctx))
}

// reqObs is one request as the client saw it.
type reqObs struct {
	sent, done time.Time
	lines      []lineObs // the first keeps its edges, for the digest
	spans      []telemetry.SpanDump
}

// do posts one request body and consumes its stream through the
// correctness gate. Traced requests also fetch the service's spans.
func (s *server) do(body []byte, e *expect, samples int, traced bool) (*reqObs, error) {
	o := &reqObs{sent: time.Now()}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return o, &opError{"transport", err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we wire.Error
		if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code == "" {
			we.Code = strconv.Itoa(resp.StatusCode)
		}
		return o, &opError{"http_" + we.Code, fmt.Errorf("status %d: %s", resp.StatusCode, we.Error)}
	}
	err = consumeStream(resp.Body, e, samples, traced, func(l *lineObs) {
		if len(o.lines) > 0 {
			l.line.Edges = nil
		}
		o.lines = append(o.lines, *l)
	})
	o.done = time.Now()
	if err != nil {
		return o, err
	}
	if traced {
		o.spans, _ = s.svc.TraceDump(o.lines[0].line.Stats.TraceID)
	}
	return o, nil
}

// fail counts a failed operation under its cause.
func fail(rep *report, err error) {
	var oe *opError
	if errors.As(err, &oe) {
		rep.ops.fail(oe.cause)
	} else {
		rep.ops.fail("other")
	}
	if len(rep.notes) < 40 { // a run that fails throughout keeps its log short
		rep.notef("failed: %v", err)
	}
}

// setUpServer repeats the set-up cfg.setups times — construct the
// service, listener and client, then run warm, which returns the
// warm-up's first sample line — and keeps the last server. setup_s is
// the median repetition. Every repetition must draw the same first
// sample.
func setUpServer(cfg config, rep *report, compileMs *[]float64, warm func(*server) (*reqObs, error)) (*server, error) {
	var (
		srv      *server
		setup    []float64
		firstDig uint64
	)
	for i := range cfg.setups {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(); err != nil {
			return nil, err
		}
		o, err := warm(srv)
		setup = append(setup, time.Since(t0).Seconds())
		if err != nil {
			continue
		}
		*compileMs = append(*compileMs, spanMs(o.spans, "engine.compile")...)
		ln := o.lines[0].line
		d := digest(ln.Nodes, ln.Edges, ln.Directed)
		switch {
		case i == 0:
			firstDig = d
			rep.notef("digest of the first sample: %016x", d)
		case d != firstDig:
			rep.ops.fail("digest")
		}
	}
	rep.set("setup_s", median(setup))
	return srv, nil
}

// serveAcc accumulates a timed phase of requests.
type serveAcc struct {
	traced    bool
	requests  int
	samples   int
	attempted int64
	first     []float64 // request sent → first sample line read, ms
	gaps      []float64 // consecutive sample lines, ms
	lastAt    time.Time

	kern         kernelAcc
	superMs      []float64 // per line: engine time per superstep
	wallMs       float64   // Σ request wall time
	serviceMs    float64   // Σ service.sample span
	lastDecodeMs float64   // Σ client decode of each request's last line
	lastGateMs   float64   // Σ client gate of each request's last line
	reqBytes     []float64
	reqDecodeMs  []float64
	validateMs   []float64
	lineBytes    []float64
	decodeMs     []float64
	encodeMs     []float64
	snapshotMs   []float64
	queueMs      []float64
	streamMs     []float64
	httpMs       []float64
	hits, misses int
	compileMs    []float64
}

// add records one completed request; multi-sample streams contribute the
// gaps within the stream, single-sample streams the gap since the
// previous request's sample.
func (a *serveAcc) add(o *reqObs, body []byte) {
	a.samples += len(o.lines)
	a.first = append(a.first, msSince(o.sent, o.lines[0].at))
	prev := a.lastAt
	if len(o.lines) > 1 {
		prev = time.Time{}
	}
	for _, l := range o.lines {
		if !prev.IsZero() {
			a.gaps = append(a.gaps, msSince(prev, l.at))
		}
		prev = l.at
		a.attempted += l.line.Stats.Attempted
	}
	a.lastAt = prev
	if a.traced {
		a.addTrace(o, body)
	}
}

func (a *serveAcc) addTrace(o *reqObs, body []byte) {
	wall := msSince(o.sent, o.done)
	a.wallMs += wall
	for _, l := range o.lines {
		st := l.line.Stats
		a.kern.add(st.Supersteps, st.Attempted, st.Accepted, st.AvgRounds, st.MaxRounds,
			st.FirstRoundNS, st.LaterRoundsNS, st.DurationNS)
		a.superMs = append(a.superMs, ratio(float64(st.DurationNS)/1e6, float64(st.Supersteps)))
		a.lineBytes = append(a.lineBytes, float64(l.bytes))
		a.decodeMs = append(a.decodeMs, float64(l.decode.Nanoseconds())/1e6)
		a.encodeMs = append(a.encodeMs, float64(l.encode.Nanoseconds())/1e6)
		a.snapshotMs = append(a.snapshotMs, l.snapMs)
	}
	// Earlier lines are decoded and gated while the service computes the
	// next sample; only the last line's decode and gate are on the
	// request's critical path.
	last := o.lines[len(o.lines)-1]
	a.lastDecodeMs += float64(last.decode.Nanoseconds()) / 1e6
	a.lastGateMs += float64(last.gate.Nanoseconds()) / 1e6

	// Request decode and validation, timed on the same body the service
	// decoded and validated.
	a.reqBytes = append(a.reqBytes, float64(len(body)))
	var wr wire.SampleRequest
	t := time.Now()
	_ = json.Unmarshal(body, &wr) // the service accepted this body
	t1 := time.Now()
	_, _ = service.FromWire(&wr)
	t2 := time.Now()
	a.reqDecodeMs = append(a.reqDecodeMs, msSince(t, t1))
	a.validateMs = append(a.validateMs, msSince(t1, t2))

	a.queueMs = append(a.queueMs, spanMs(o.spans, "queue.wait")...)
	a.streamMs = append(a.streamMs, spanMs(o.spans, "engine.stream")...)
	a.compileMs = append(a.compileMs, spanMs(o.spans, "engine.compile")...)
	for _, s := range o.spans {
		switch {
		case s.Name == "pool.checkout" && s.Attrs["outcome"] == "hit":
			a.hits++
		case s.Name == "pool.checkout":
			a.misses++
		case s.Name == "service.sample":
			a.serviceMs += float64(s.DurationNS) / 1e6
		}
	}
	// HTTP overhead: the client's first-line latency less the service's
	// time to its first sample (stream start within the request span,
	// plus the first sample's engine time).
	root, stream := findSpan(o.spans, "service.sample"), findSpan(o.spans, "engine.stream")
	if root != nil && stream != nil {
		svcMs := float64(stream.StartUnixNS-root.StartUnixNS)/1e6 + float64(o.lines[0].line.Stats.DurationNS)/1e6
		a.httpMs = append(a.httpMs, msSince(o.sent, o.lines[0].at)-svcMs)
	}
}

// report writes the end-to-end metrics, or the per-layer ones of a
// traced phase.
func (a *serveAcc) report(rep *report, elapsed time.Duration) {
	if !a.traced {
		rep.set("switches_per_s", float64(a.attempted)/elapsed.Seconds())
		rep.set("samples_per_s", float64(a.samples)/elapsed.Seconds())
		rep.set("first_sample_ms_p50", median(a.first))
		rep.set("first_sample_ms_p90", percentile(a.first, 0.9))
		rep.set("sample_gap_ms_p50", median(a.gaps))
		rep.set("sample_gap_ms_p90", percentile(a.gaps, 0.9))
		rep.observations("requests", len(a.first))
		rep.observations("sample gaps", len(a.gaps))
		return
	}
	a.kern.report(rep)
	rep.set("kernel.superstep_ms_p50", median(a.superMs))
	rep.set("kernel.superstep_ms_p90", percentile(a.superMs, 0.9))
	rep.set("service.kernel_share", ratio(float64(a.kern.durationNS)/1e6, a.wallMs))
	rep.set("service.validate_ms", median(a.validateMs))
	rep.set("service.compile_ms", median(a.compileMs))
	rep.set("service.queue_wait_ms", median(a.queueMs))
	rep.set("service.pool_hit_ratio", ratio(float64(a.hits), float64(a.hits+a.misses)))
	rep.set("service.stream_ms", median(a.streamMs))
	rep.set("wire.request_bytes", median(a.reqBytes))
	rep.set("wire.request_decode_ms", median(a.reqDecodeMs))
	rep.set("wire.line_bytes", median(a.lineBytes))
	rep.set("wire.encode_ms", median(a.encodeMs))
	rep.set("wire.decode_ms", median(a.decodeMs))
	rep.set("gesmc.snapshot_ms", median(a.snapshotMs))
	rep.set("http.overhead_ms", median(a.httpMs))
	rep.set("client.gate_share", ratio(a.lastGateMs, a.wallMs))
	client := a.lastDecodeMs + a.lastGateMs
	rep.set("trace.wall_covered_share", ratio(a.serviceMs+client, a.wallMs))
	k := float64(len(a.first))
	kernelMs := float64(a.kern.durationNS) / 1e6
	rep.notef("per request, mean of %d traced: wall %.2f ms = service span %.2f (kernel %.2f, rest of the service %.2f) + client decode %.2f and gate %.2f of the last line + unattributed %.2f",
		len(a.first), a.wallMs/k, a.serviceMs/k, kernelMs/k, (a.serviceMs-kernelMs)/k, a.lastDecodeMs/k, a.lastGateMs/k,
		(a.wallMs-a.serviceMs-client)/k)
}

// loop runs the closed loop for d: request i is body(i), and each
// request must stream samples lines.
func (a *serveAcc) loop(srv *server, rep *report, d time.Duration, samples int, body func(i int) ([]byte, *expect)) time.Duration {
	var rt *runtimeWatch
	if a.traced {
		rt = startRuntimeWatch()
	}
	var ms runtime.MemStats
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		b, e := body(i)
		a.requests++
		rep.ops.try()
		o, err := srv.do(b, e, samples, a.traced)
		if err != nil {
			fail(rep, err)
			continue
		}
		a.add(o, b)
		if a.traced {
			runtime.ReadMemStats(&ms)
			rt.sample(&ms)
		}
	}
	elapsed := time.Since(start)
	if a.traced {
		rt.finish(rep)
	}
	return elapsed
}

// runPhases runs the timed phase; a traced run follows it with a traced
// phase of the same length and reports the per-layer metrics and the
// tracing overhead.
func runPhases(cfg config, rep *report, srv *server, samples int, compileMs []float64, body func(i int) ([]byte, *expect)) {
	plain := &serveAcc{}
	elapsed := plain.loop(srv, rep, cfg.phase(), samples, body)
	if !cfg.trace {
		plain.report(rep, elapsed)
		return
	}
	traced := &serveAcc{traced: true, compileMs: compileMs}
	tElapsed := traced.loop(srv, rep, cfg.phase(), samples, func(i int) ([]byte, *expect) {
		return body(plain.requests + i) // fresh requests, after the untraced ones
	})
	traced.report(rep, tElapsed)
	rep.set("trace.overhead_ratio", ratio(float64(plain.samples)/elapsed.Seconds(), float64(traced.samples)/tElapsed.Seconds()))
}

// serveWarm is the service's default request repeated: ParGlobalES,
// workers=1, the default 20-superstep burn-in and thinning, one fixed
// seed, 20 samples per request on a power-law degree sequence. After the
// first request every request is a pool hit.
func serveWarm(cfg config, rep *report) error {
	r := newRand(cfg.seed, 2)
	n := cfg.warmNodes
	edges := erasedConfiguration(powerLawDegrees(n, 2.2, r), r)
	e := expectFor(n, edges, false)
	body, err := json.Marshal(wire.SampleRequest{Degrees: e.out, Samples: cfg.warmSamples, Seed: r.Uint64()})
	if err != nil {
		return err
	}
	rep.notef("input: power-law degree sequence gamma=2.2 n=%d m=%d, %d samples per request, request body %d bytes",
		n, len(edges), cfg.warmSamples, len(body))
	rep.notef("client: closed loop, one client, one connection; service default workers=1")

	var compileMs []float64
	srv, err := setUpServer(cfg, rep, &compileMs, func(s *server) (*reqObs, error) {
		rep.ops.try()
		o, err := s.do(body, e, cfg.warmSamples, cfg.trace)
		if err != nil {
			fail(rep, err)
		}
		return o, err
	})
	if err != nil {
		return err
	}
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	rep.workingSet(heap.HeapInuse)
	runPhases(cfg, rep, srv, cfg.warmSamples, compileMs, func(int) ([]byte, *expect) { return body, e })
	if err := srv.close(); err != nil {
		return err
	}
	if cfg.trace {
		g, err := gesmc.FromDegrees(e.out)
		if err != nil {
			return err
		}
		if err := probeTarget(cfg, rep, g, edgeListText(n, g.Edges()), func() gesmc.Target { return g.Clone() }); err != nil {
			return err
		}
	}
	return setPeakRSS(rep)
}

// serveCold uploads a distinct directed arc list per request: a fixed
// set of graphs cycled with fresh request seeds, so every request misses
// the engine pool and pays decode, validation, compile and burn-in.
func serveCold(cfg config, rep *report) error {
	r := newRand(cfg.seed, 3)
	n := cfg.coldNodes
	type coldGraph struct {
		prefix []byte
		arcs   [][2]uint32
		e      *expect
	}
	graphs := make([]coldGraph, cfg.coldGraphs)
	for k := range graphs {
		arcs := randomArcs(n, cfg.coldArcs, r)
		js, err := json.Marshal(arcs)
		if err != nil {
			return err
		}
		prefix := fmt.Appendf(nil, `{"edges":%s,"nodes":%d,"directed":true,"samples":1,"seed":`, js, n)
		graphs[k] = coldGraph{prefix, arcs, expectFor(n, arcs, true)}
	}
	seedBase := r.Uint64()
	body := func(i int) ([]byte, *expect) {
		g := graphs[i%len(graphs)]
		b := strconv.AppendUint(bytes.Clone(g.prefix), seedBase+uint64(i), 10)
		return append(b, '}'), g.e
	}
	b0, _ := body(0)
	rep.notef("input: %d directed arc lists n=%d m=%d cycled with fresh seeds, 1 sample per request, request body ~%d bytes",
		len(graphs), n, cfg.coldArcs, len(b0))
	rep.notef("client: closed loop, one client, one connection; service default workers=1; %d warm-up requests per set-up",
		cfg.coldRequests)

	var compileMs []float64
	srv, err := setUpServer(cfg, rep, &compileMs, func(s *server) (*reqObs, error) {
		var first *reqObs
		var ferr error
		for i := range cfg.coldRequests {
			b, e := body(i)
			rep.ops.try()
			o, err := s.do(b, e, 1, false)
			if err != nil {
				fail(rep, err)
			}
			if i == 0 {
				first, ferr = o, err
			}
		}
		return first, ferr
	})
	if err != nil {
		return err
	}
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	rep.workingSet(heap.HeapInuse)
	runPhases(cfg, rep, srv, 1, compileMs, func(i int) ([]byte, *expect) { return body(cfg.coldRequests + i) })
	if err := srv.close(); err != nil {
		return err
	}
	if cfg.trace {
		dg, err := gesmc.NewDiGraph(n, graphs[0].arcs)
		if err != nil {
			return err
		}
		if err := probeTarget(cfg, rep, dg, edgeListText(n, graphs[0].arcs), func() gesmc.Target { return dg.Clone() }); err != nil {
			return err
		}
	}
	return setPeakRSS(rep)
}

// probeTarget times, outside the service, the layers the service runs
// per request on this workload's target: parsing, compile, the kernel's
// allocations per superstep, the permutation, and the sequential chain.
func probeTarget(cfg config, rep *report, t gesmc.Target, text []byte, clone func() gesmc.Target) error {
	var readMs, compMs []float64
	for range 5 {
		t0 := time.Now()
		var err error
		if _, ok := t.(*gesmc.DiGraph); ok {
			_, err = gesmc.ReadArcList(bytes.NewReader(text))
		} else {
			_, err = gesmc.ReadGraph(bytes.NewReader(text))
		}
		if err != nil {
			return fmt.Errorf("probe: read: %w", err)
		}
		readMs = append(readMs, msSince(t0, time.Now()))
	}
	var s *gesmc.Sampler
	for range 5 {
		if s != nil {
			s.Close()
		}
		t0 := time.Now()
		var err error
		if s, err = gesmc.NewSampler(clone()); err != nil {
			return fmt.Errorf("probe: compile: %w", err)
		}
		compMs = append(compMs, msSince(t0, time.Now()))
	}
	defer s.Close()
	rep.set("gesmc.read_graph_ms", median(readMs))
	rep.set("gesmc.compile_ms", median(compMs))

	if _, err := s.Step(kernelWarmup); err != nil {
		return fmt.Errorf("probe: step: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	const steps = 20
	for range steps {
		if _, err := s.Step(1); err != nil {
			return fmt.Errorf("probe: step: %w", err)
		}
	}
	runtime.ReadMemStats(&ms)
	rep.set("kernel.allocs_per_superstep", float64(ms.Mallocs-before)/steps)

	m := 0
	switch g := t.(type) {
	case *gesmc.Graph:
		m = g.M()
	case *gesmc.DiGraph:
		m = g.M()
	}
	rep.set("rng.perm_ms", permMs(m, 1))
	seq, err := seqNsPerSwitch(clone(), steps)
	if err != nil {
		return fmt.Errorf("probe: sequential chain: %w", err)
	}
	rep.set("engine.seq_ns_per_switch", seq)
	rep.set("engine.speedup_vs_seq", ratio(seq, rep.values["kernel.ns_per_switch"]))
	return nil
}

// spanMs returns the durations, in ms, of the spans called name.
func spanMs(spans []telemetry.SpanDump, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.DurationNS)/1e6)
		}
	}
	return xs
}

func findSpan(spans []telemetry.SpanDump, name string) *telemetry.SpanDump {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}
