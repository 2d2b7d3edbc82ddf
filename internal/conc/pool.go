package conc

import (
	"runtime"
	"sync/atomic"
)

// Pool is a persistent gang of worker goroutines parked on a
// channel-based barrier, the replacement for spawn-per-call Run/Blocks
// on hot paths: a kernel superstep issues several parallel-for phases,
// and a chain issues thousands of supersteps, so goroutine creation and
// WaitGroup churn per phase dominates the barrier cost the paper's
// analysis assumes to be cheap. The pool's workers 1..P-1 live as long
// as the pool; the caller participates as worker 0, so a dispatch costs
// one channel send per parked worker plus one receive for the
// completion barrier, and nothing at all at P=1.
//
// Dispatch state (the task and its iteration space) is published via
// plain fields before the wake-up sends; the channel operations order
// them. Bodies passed to Run/Blocks/Chunked/Fused should be long-lived
// function values (fields on the owning engine) — then a steady-state
// dispatch performs zero heap allocations, which the kernel's
// allocation-regression test asserts.
//
// Grain sizing is topology-aware: at construction the pool derives a
// default chunk grain from the per-core L2 share (capped by the LLC
// share per worker), so cursor-claimed chunks keep their working set
// cache-resident instead of using naive n/P-derived sizes. Static block
// boundaries are aligned to 16-item multiples so adjacent workers
// writing item-indexed arrays do not false-share the boundary cache
// lines.
//
// Concurrency contract: a Pool serializes its dispatches. Calling Run,
// Blocks, Chunked, or Fused from inside a body (nested use), or from
// two goroutines at once, panics. Close releases the workers; it is
// idempotent, and a finalizer releases them when a pool owner leaks
// without closing, so parked goroutines never outlive the pool's
// reachability.
type Pool struct {
	sh *poolShared
}

const cacheLine = 64

// poolShared is the worker-visible state. It is split from Pool so the
// parked goroutines keep only poolShared alive: the outer Pool stays
// collectable, letting its finalizer release the gang when the owner
// forgets to Close. The contended atomics (chunk cursor, completion
// count, sub-barrier state) are padded onto private cache lines so the
// cursor traffic of a chunked round does not invalidate the read-mostly
// dispatch fields every worker re-reads.
type poolShared struct {
	workers int
	grain   int // default chunk size in items, topology-derived

	// Dispatch state, written by the coordinator before the wake-up
	// sends and read-only during a dispatch.
	mode    int
	body    func(worker int)
	rangeFn func(worker, lo, hi int)
	n       int
	chunk   int
	plan    *FusedPlan

	start []chan struct{}
	done  chan struct{}

	panicV  atomic.Pointer[poolPanic]
	running atomic.Bool
	closed  atomic.Bool

	_       [cacheLine]byte
	cursor  atomic.Int64 // chunked mode: next unclaimed index
	_       [cacheLine - 8]byte
	pending atomic.Int32
	_       [cacheLine - 4]byte
	barIn   atomic.Int32 // fused sub-barrier: arrivals
	_       [cacheLine - 4]byte
	barGen  atomic.Uint32 // fused sub-barrier: release generation
	_       [cacheLine - 4]byte
}

type poolPanic struct{ v any }

const (
	modeBody = iota
	modeBlocks
	modeChunked
	modeFused
)

// chunkItemBytes is the assumed per-item cache footprint used to convert
// a byte budget into a chunk length: the kernel's decide items touch a
// handful of scattered lines (dependency-table entries plus hash-set
// buckets), of which roughly one line per item is unique to the chunk.
const chunkItemBytes = 64

// defaultGrain derives the chunk grain from the cache topology: a chunk
// should fill a fraction of the per-core private L2 (staying resident
// across the claim), without the gang's combined claims exceeding their
// LLC share.
func defaultGrain(workers int) int {
	if workers < 1 {
		workers = 1
	}
	t := Topology()
	budget := t.L2Bytes / 4
	if llcShare := t.LLCBytes / (2 * workers); budget > llcShare && llcShare > 0 {
		budget = llcShare
	}
	return max(budget/chunkItemBytes, serialCutoff)
}

// NewPool starts a gang of workers goroutines (worker ids 0..workers-1,
// id 0 being the caller of each dispatch). workers < 1 is treated as 1;
// a 1-worker pool spawns no goroutines and dispatches inline.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	sh := &poolShared{
		workers: workers,
		grain:   defaultGrain(workers),
		done:    make(chan struct{}),
	}
	sh.start = make([]chan struct{}, workers-1)
	for i := range sh.start {
		sh.start[i] = make(chan struct{}, 1)
		go sh.parked(i + 1)
	}
	p := &Pool{sh: sh}
	if workers > 1 {
		runtime.SetFinalizer(p, func(p *Pool) { p.sh.release() })
	}
	return p
}

// Workers returns the gang size P.
func (p *Pool) Workers() int { return p.sh.workers }

// Grain returns the current default chunk size in items.
func (p *Pool) Grain() int { return p.sh.grain }

// Close releases the worker goroutines. Idempotent; dispatching after
// Close panics. Closing is optional (a finalizer releases leaked
// pools), but deterministic release is good hygiene for engines that
// create many pools.
func (p *Pool) Close() {
	if p.sh.running.Load() {
		panic("conc: Pool.Close during dispatch")
	}
	p.sh.release()
	runtime.SetFinalizer(p, nil)
}

func (sh *poolShared) release() {
	if sh.closed.CompareAndSwap(false, true) {
		for _, c := range sh.start {
			close(c)
		}
	}
}

// parked is the worker loop: wait for a wake-up, run the current
// dispatch, signal the barrier if last, park again.
func (sh *poolShared) parked(w int) {
	for range sh.start[w-1] {
		sh.invoke(w)
		if sh.pending.Add(-1) == 0 {
			sh.done <- struct{}{}
		}
	}
}

// invoke runs the current dispatch as worker w, converting panics into
// a recorded first-panic that the coordinator re-raises. Fused
// dispatches recover per pass instead (a worker must keep arriving at
// the sub-barriers after a panic, or the gang would deadlock).
func (sh *poolShared) invoke(w int) {
	if sh.mode == modeFused {
		sh.fusedRun(w)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			sh.panicV.CompareAndSwap(nil, &poolPanic{v: r})
		}
	}()
	sh.dispatch(w)
}

// alignItems is the item granularity static block boundaries snap to:
// 16 items cover a full cache line for 4-byte items, so two workers
// never write the same line at a block boundary.
const alignItems = 16

// blockRange computes worker w's static block of [0, n): contiguous
// blocks differing by at most one, with boundaries aligned to
// alignItems when the blocks are large enough that alignment cannot
// starve a worker.
func blockRange(n, w, workers int) (int, int) {
	lo := n * w / workers
	hi := n * (w + 1) / workers
	if n >= workers*alignItems*4 {
		lo = (lo + alignItems - 1) &^ (alignItems - 1)
		hi = (hi + alignItems - 1) &^ (alignItems - 1)
		if lo > n {
			lo = n
		}
		if hi > n || w == workers-1 {
			hi = n
		}
	}
	return lo, hi
}

func (sh *poolShared) dispatch(w int) {
	switch sh.mode {
	case modeBody:
		sh.body(w)
	case modeBlocks:
		lo, hi := blockRange(sh.n, w, sh.workers)
		if lo < hi {
			sh.rangeFn(w, lo, hi)
		}
	case modeChunked:
		sh.chunkedLoop(w, sh.n, sh.chunk, sh.rangeFn)
	}
}

// chunkedLoop claims chunk-sized ranges of [0, n) from the shared
// cursor until the space is exhausted.
func (sh *poolShared) chunkedLoop(w, n, chunk int, fn func(worker, lo, hi int)) {
	for {
		hi := int(sh.cursor.Add(int64(chunk)))
		lo := hi - chunk
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		fn(w, lo, hi)
	}
}

// autoChunk sizes a cursor-claimed chunk for an n-item space: the
// topology-derived grain, shrunk so every worker still gets a few
// claims for load balancing, and never below the serial cutoff.
func (sh *poolShared) autoChunk(n int) int {
	g := sh.grain
	if balance := n / (4 * sh.workers); g > balance {
		g = balance
	}
	if g < serialCutoff {
		g = serialCutoff
	}
	return g
}

// acquire takes the dispatch lock before any dispatch state is
// written: nested or concurrent dispatches must be rejected without
// touching fields the parked workers may be reading.
func (sh *poolShared) acquire() {
	if !sh.running.CompareAndSwap(false, true) {
		panic("conc: nested or concurrent Pool dispatch")
	}
	if sh.closed.Load() {
		sh.running.Store(false)
		panic("conc: Pool dispatch after Close")
	}
}

// gang wakes the parked workers, runs the dispatch as worker 0, waits
// for the completion barrier, and re-raises the first recorded panic.
// The caller holds the dispatch lock (acquire) and has published the
// dispatch state.
func (sh *poolShared) gang() {
	sh.pending.Store(int32(sh.workers - 1))
	for _, c := range sh.start {
		c <- struct{}{}
	}
	sh.invoke(0)
	<-sh.done
	sh.body = nil
	sh.rangeFn = nil
	sh.plan = nil
	sh.running.Store(false)
	if pv := sh.panicV.Swap(nil); pv != nil {
		panic(pv.v)
	}
}

// solo runs a dispatch inline on a 1-worker pool (or a small-n
// fast path). The caller holds the dispatch lock (acquire) and has
// published the dispatch state. Panics recorded by the per-pass
// recovery of fused mode are re-raised after cleanup.
func (sh *poolShared) solo() {
	defer func() {
		sh.body = nil
		sh.rangeFn = nil
		sh.plan = nil
		sh.running.Store(false)
	}()
	sh.invoke(0)
	if pv := sh.panicV.Swap(nil); pv != nil {
		panic(pv.v)
	}
}

// Run executes body once per worker id 0..P-1, in parallel, and waits
// for all of them — the pooled equivalent of package-level Run.
func (p *Pool) Run(body func(worker int)) {
	// Pin p: its finalizer must not release the gang mid-dispatch once
	// the method body no longer references p itself.
	defer runtime.KeepAlive(p)
	sh := p.sh
	sh.acquire()
	sh.mode = modeBody
	sh.body = body
	if sh.workers == 1 {
		sh.solo()
		return
	}
	sh.gang()
}

// serialCutoff is the iteration count below which Blocks and Chunked
// run inline on the calling goroutine: waking the gang costs ~µs, which
// dwarfs a handful of items (the typical re-examination rounds of the
// superstep kernel decide only a few delayed switches).
const serialCutoff = 32

// Blocks partitions [0, n) into at most P contiguous blocks differing
// in size by at most one (boundaries aligned to 16 items on large
// inputs) and runs fn on each block in parallel. Workers whose block is
// empty are still woken but skip the call.
func (p *Pool) Blocks(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	defer runtime.KeepAlive(p) // see Run
	sh := p.sh
	sh.acquire()
	sh.mode = modeBlocks
	sh.rangeFn = fn
	sh.n = n
	if sh.workers == 1 || n <= serialCutoff {
		sh.mode = modeChunked // single full-range call below
		sh.chunk = n
		sh.cursor.Store(0)
		sh.solo()
		return
	}
	sh.gang()
}

// Chunked runs fn over [0, n) in chunks claimed from an atomic cursor:
// workers grab the next chunk-sized range until the space is exhausted.
// Use it when per-item cost is skewed (the decide rounds, where delayed
// switches cluster) and static blocks would imbalance the gang.
// chunk <= 0 selects the pool's topology-derived grain, shrunk if
// needed so each worker gets several claims.
func (p *Pool) Chunked(n, chunk int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	defer runtime.KeepAlive(p) // see Run
	sh := p.sh
	sh.acquire()
	if chunk <= 0 {
		chunk = sh.autoChunk(n)
	}
	sh.mode = modeChunked
	sh.rangeFn = fn
	sh.n = n
	sh.chunk = chunk
	sh.cursor.Store(0)
	if sh.workers == 1 || n <= serialCutoff {
		sh.chunk = n
		sh.solo()
		return
	}
	sh.gang()
}

// FusedPass is one pass of a fused dispatch: an iteration space, the
// body to run over it, and how to partition it. After, when non-nil,
// runs on exactly one worker at the pass's trailing sub-barrier —
// after every worker has finished the pass, before any worker starts
// the next — for short serial fix-ups (counter resets) that would
// otherwise cost a full dispatch.
type FusedPass struct {
	// N is the iteration space [0, N). N <= 0 skips the body (After
	// still runs).
	N int
	// Chunk selects the partitioning: 0 = static aligned blocks,
	// > 0 = cursor-claimed chunks of this size, < 0 = cursor-claimed
	// chunks of the pool's topology-derived grain.
	Chunk int
	// Fn is the pass body.
	Fn func(worker, lo, hi int)
	// After runs serially at the pass's sub-barrier.
	After func()
}

// FusedPlan is a reusable sequence of passes executed by one fused
// dispatch. Owners build it once (the passes slice is read, never
// mutated) so steady-state fused dispatches allocate nothing.
type FusedPlan struct {
	Passes []FusedPass
}

// Fused executes the plan's passes in order as ONE dispatch: the gang
// is woken once, passes are separated by internal sense-reversing
// sub-barriers (spin-then-yield), and the completion barrier fires
// after the last pass. Relative to dispatching each pass separately
// this removes a full wake/park cycle per fused boundary — the
// dominant superstep cost once phase bodies are cheap — while
// preserving the all-of-pass-i-before-any-of-pass-i+1 ordering that
// the phases of Algorithm 1 require.
//
// A panic in a pass body or After hook is recorded, the pass is
// abandoned by that worker, sub-barriers continue to operate (so the
// gang cannot deadlock), and the first panic is re-raised at the
// completion barrier.
func (p *Pool) Fused(plan *FusedPlan) {
	if len(plan.Passes) == 0 {
		return
	}
	defer runtime.KeepAlive(p) // see Run
	sh := p.sh
	sh.acquire()
	sh.mode = modeFused
	sh.plan = plan
	sh.cursor.Store(0)
	if sh.workers == 1 {
		sh.solo()
		return
	}
	sh.gang()
}

// fusedRun is the per-worker loop of a fused dispatch.
func (sh *poolShared) fusedRun(w int) {
	passes := sh.plan.Passes
	last := len(passes) - 1
	for pi := range passes {
		ps := &passes[pi]
		if ps.Fn != nil && ps.N > 0 {
			sh.fusedPass(w, ps)
		}
		// The final sub-barrier is subsumed by the completion barrier
		// unless an After hook needs the all-finished point.
		if pi < last || ps.After != nil {
			sh.fusedBarrier(ps.After)
		}
	}
}

// fusedPass runs one pass body, recovering panics so the worker still
// reaches the trailing sub-barrier.
func (sh *poolShared) fusedPass(w int, ps *FusedPass) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicV.CompareAndSwap(nil, &poolPanic{v: r})
		}
	}()
	if ps.Chunk == 0 {
		lo, hi := blockRange(ps.N, w, sh.workers)
		if lo < hi {
			ps.Fn(w, lo, hi)
		}
		return
	}
	chunk := ps.Chunk
	if chunk < 0 {
		chunk = sh.autoChunk(ps.N)
	}
	sh.chunkedLoop(w, ps.N, chunk, ps.Fn)
}

// fusedBarrier is the sense-reversing sub-barrier between fused passes.
// The last arriver (the leader) runs the After hook, resets the shared
// cursor for the next pass, and releases the generation; the others
// spin briefly and then yield, so oversubscribed gangs (P > cores)
// still make progress.
func (sh *poolShared) fusedBarrier(after func()) {
	gen := sh.barGen.Load()
	if sh.barIn.Add(1) == int32(sh.workers) {
		sh.barIn.Store(0)
		if after != nil {
			sh.runAfter(after)
		}
		sh.cursor.Store(0)
		sh.barGen.Add(1)
	} else {
		for spins := 0; sh.barGen.Load() == gen; spins++ {
			if spins > 256 {
				runtime.Gosched()
			}
		}
	}
}

func (sh *poolShared) runAfter(after func()) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicV.CompareAndSwap(nil, &poolPanic{v: r})
		}
	}()
	after()
}
