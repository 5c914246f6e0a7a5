package verify

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsd/internal/bv"
	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/smt"
	"vsd/internal/symbex"
	"vsd/internal/telemetry"
)

// Options configures a Verifier.
type Options struct {
	// MinLen and MaxLen bound the symbolic packet length; zero values
	// become packet.MinFrame (14) and packet.MaxFrame (1514).
	MinLen, MaxLen uint64
	// Engine options forwarded to the symbolic executor.
	Symbex symbex.Options
	// Parallelism bounds the worker pool for Step-1 summarization and
	// the Step-2 composed-path walk. 0 uses GOMAXPROCS; 1 disables
	// concurrency. Verdicts and statistics are schedule-independent;
	// witness ordering is canonicalized by path name.
	Parallelism int
	// Store persists Step-1 summaries across Verifier instances (and,
	// with a DiskStore, across processes), keyed by program fingerprint.
	// nil keeps summaries purely in the per-Verifier cache. Loaded
	// entries bypass the symbolic engine entirely; corrupt or missing
	// entries fall back to re-summarizing.
	Store SummaryStore
	// SolverMaxConflicts bounds each SAT search (0 = the solver default,
	// negative = unbounded) and SolverTimeout bounds its wall time (0 =
	// none). An exhausted budget surfaces as an unresolved obligation in
	// the property report — never as a false verdict — so callers like
	// vsdserve can bound worst-case latency.
	SolverMaxConflicts int64
	SolverTimeout      time.Duration
	// SolverFaultHook forwards to smt.Options.FaultHook: the
	// fault-injection harness's solver-level hook (internal/faultinject)
	// forcing Unknown verdicts, timeouts, or panics into individual SAT
	// searches. Production configurations leave it nil.
	SolverFaultHook func() smt.SolveFault
	// Trace records phase/obligation spans (Step-1 summarizations,
	// Step-2 walks, per-obligation SAT solves, store operations) into
	// the given tracer for Chrome trace-event export. nil disables
	// tracing at zero cost (the disabled path is allocation-free).
	Trace *telemetry.Tracer
	// Metrics threads verifier latency histograms and store counters
	// through the given registry (surfaced by vsdserve's /metrics).
	// nil keeps the always-on solve/summarize histograms private to
	// Stats.
	Metrics *telemetry.Registry
	// Profile aggregates per-obligation solver cost (wall time,
	// conflicts, CNF growth) for ObligationProfile — the machinery
	// behind `vsdverify -profile`. Off by default: it prices a string
	// label per stitched obligation.
	Profile bool
}

// solverOptions translates the verifier-level solver knobs into
// smt.Options (shared by the compositional verifier and the monolithic
// baseline so ablations compare like with like).
func (o Options) solverOptions() smt.Options {
	return smt.Options{
		MaxConflicts: o.SolverMaxConflicts,
		QueryTimeout: o.SolverTimeout,
		FaultHook:    o.SolverFaultHook,
	}
}

// normalized resolves zero option values to their defaults. New,
// StoreKey and Monolithic all go through it, so equal effective
// configurations build equal verifiers and share store keys.
func (o Options) normalized() Options {
	if o.MinLen == 0 {
		o.MinLen = packet.MinFrame
	}
	if o.MaxLen == 0 {
		o.MaxLen = packet.MaxFrame
	}
	return o
}

// maxRefinedReads caps the bad-value combination search of the stateful
// refinement (stateful.go): crash paths whose constraint mentions more
// state reads than this stay suspect (sound, but reported via
// Stats.RefinementTruncated).
const maxRefinedReads = 2

// maxComposedPaths bounds Step-2 path enumeration.
const maxComposedPaths = 1 << 18

// Stats describes the work a verification performed.
type Stats struct {
	ElementsSummarized int   // Step-1 symbolic-engine runs (all caches missed)
	SummaryCacheHits   int   // Step-1 in-memory cache hits
	StoreHits          int   // Step-1 summaries loaded from Options.Store
	StoreMisses        int   // Options.Store lookups that fell through to the engine
	SegmentsTotal      int   // segments across all summaries used
	Suspects           int   // crash-tagged segments before composition
	ComposedPaths      int   // stitched paths explored in Step 2
	ComposedInfeasible int   // stitched paths discharged as infeasible
	SolverQueries      int64 // feasibility queries in Step 2
	// RefinementTruncated counts crash paths left suspect because they
	// read more state values than the bad-value search enumerates
	// (maxRefinedReads).
	RefinementTruncated int
	// Robustness counters (DESIGN.md §9). PanicsRecovered counts engine
	// panics contained by the workers (each surfaced as an unresolved
	// obligation, never a verdict); WatchdogFired counts wall-budget
	// cancellations delivered through Interrupt.
	PanicsRecovered int
	WatchdogFired   int
	// Sequence-verification counters (induction.go, DESIGN.md §8).
	SeqSequences     int // feasible multi-packet sequences explored
	SeqInfeasible    int // sequence extensions discharged as infeasible
	InductionDepth   int // deepest k-induction step attempted
	InductionProved  int // obligations proved for unbounded sequences
	InductionRefuted int // induction obligations refuted by a reachable sequence
	SeqSpecRefuted   int // bounded sequence specs/explorations refuted
	SymbexStats      symbex.Stats
	// SolveTimes is the wall-clock spread of individual solver queries
	// (nanoseconds) and SummarizeTimes of Step-1 engine runs — the
	// percentile view that end-of-run totals hide (a neutral mean can
	// mask a regressed tail; BENCH records carry these since PR 10).
	SolveTimes     telemetry.HistSummary
	SummarizeTimes telemetry.HistSummary
	// Solver carries the counters of the shared solver, including the
	// incremental-session ones (sessions opened, reused clauses), plus
	// those of the throwaway solvers that re-solve bound witnesses.
	Solver smt.Stats
}

// Verifier runs compositional verification over pipelines. All methods
// are safe for concurrent use; a single verification also fans its own
// work out across Options.Parallelism goroutines.
type Verifier struct {
	solver *smt.Solver
	opts   Options

	// mu guards the summary cache, the statistics, and the idle pools.
	// The per-query counters below are atomics instead: every walker
	// bumps them on the hot path, and a shared mutex there serializes
	// the pool.
	mu       sync.Mutex
	cache    map[ir.Fingerprint]*summaryEntry
	stats    Stats
	engines  []*symbex.Engine
	sessions []*smt.IncrementalSession

	composedPaths      atomic.Int64
	composedInfeasible atomic.Int64
	solverQueries      atomic.Int64
	panicsRecovered    atomic.Int64
	watchdogFired      atomic.Int64

	// interrupt is the watchdog's cancellation flag, shared with the
	// solver (smt.Options.Interrupt): setting it makes every in-flight
	// and future SAT search return Unknown and stops walkers at the next
	// subtree boundary, so all affected obligations degrade to
	// unresolved — never to a verdict.
	interrupt atomic.Bool

	// visitMu serializes walk visit callbacks; rootSession backs the
	// solver queries made from inside them (witnesses, the stateful
	// refinement) and from post-walk report construction.
	visitMu     sync.Mutex
	rootSession *smt.IncrementalSession

	// tel is the telemetry spine (always non-nil; see vtel).
	tel *vtel
}

// summaryEntry is a once-filled summary cache slot: concurrent walkers
// requesting the same program block on the first computation instead of
// duplicating it. merged records whether the summary's step counts are
// upper bounds (loop-state merging), whether it was computed here or
// loaded from the store.
type summaryEntry struct {
	once   sync.Once
	segs   []*symbex.Segment
	merged bool
	err    error
}

// New returns a Verifier with fresh solver and engine pool.
func New(opts Options) *Verifier {
	opts = opts.normalized()
	v := &Verifier{
		opts:  opts,
		cache: map[ir.Fingerprint]*summaryEntry{},
		tel:   newVtel(opts),
	}
	so := opts.solverOptions()
	so.Interrupt = &v.interrupt
	v.solver = smt.New(so)
	v.rootSession = v.solver.NewSession()
	// Witness extraction and refinement queries run on the root
	// session from under visitMu (one goroutine at a time), so one
	// permanent lane keeps their spans properly nested.
	v.tel.bindSession(v.rootSession, v.tel.tracer.Lane("verify-root"))
	return v
}

// Interrupt cancels all in-flight and future solver work on this
// Verifier: SAT searches return Unknown, walkers stop at the next
// subtree boundary, and every affected obligation degrades to
// unresolved (DESIGN.md §9). It never fabricates a verdict. Interrupt
// is verifier-wide: under a shared Verifier, concurrent verifications
// all degrade — acceptable collateral for a watchdog whose alternative
// is a wedged daemon. Resume restores service.
func (v *Verifier) Interrupt() { v.interrupt.Store(true) }

// Resume clears an Interrupt, restoring normal solving for subsequent
// queries.
func (v *Verifier) Resume() { v.interrupt.Store(false) }

// WithWatchdog runs fn under a wall budget: if fn has not returned
// within budget, the verifier is interrupted — cancelling solver work
// even when the solver ignores its own deadline (a propagation storm
// between deadline checks, an injected stall) — and fn's obligations
// degrade to unresolved. The interrupt is cleared before returning.
// fired reports whether the watchdog had to step in. budget <= 0 runs
// fn unguarded.
func (v *Verifier) WithWatchdog(budget time.Duration, fn func() error) (fired bool, err error) {
	if budget <= 0 {
		return false, fn()
	}
	interrupted := make(chan struct{})
	t := time.AfterFunc(budget, func() {
		defer close(interrupted)
		v.watchdogFired.Add(1)
		v.Interrupt()
	})
	err = fn()
	// Stop returning false means the callback has fired (or is mid-run):
	// wait for its Interrupt to land before clearing it, so a late timer
	// can never leave the verifier permanently interrupted.
	if !t.Stop() {
		<-interrupted
		v.Resume()
		return true, err
	}
	return false, err
}

// parallelism resolves Options.Parallelism.
func (v *Verifier) parallelism() int {
	if v.opts.Parallelism > 0 {
		return v.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns a snapshot of the accumulated statistics. It is safe to
// call concurrently with a running verification; engine counters are
// folded in as workers finish with their engines.
func (v *Verifier) Stats() Stats {
	v.mu.Lock()
	s := v.stats
	v.mu.Unlock()
	s.ComposedPaths = int(v.composedPaths.Load())
	s.ComposedInfeasible = int(v.composedInfeasible.Load())
	s.SolverQueries = v.solverQueries.Load()
	s.PanicsRecovered = int(v.panicsRecovered.Load())
	s.WatchdogFired = int(v.watchdogFired.Load())
	s.Solver.Add(v.solver.Stats())
	s.SolveTimes = v.tel.solveHist.Summary()
	s.SummarizeTimes = v.tel.summarizeHist.Summary()
	return s
}

// getEngine checks an idle symbolic-execution engine out of the pool
// (or creates one sharing the verifier's solver).
func (v *Verifier) getEngine() *symbex.Engine {
	v.mu.Lock()
	if n := len(v.engines); n > 0 {
		e := v.engines[n-1]
		v.engines = v.engines[:n-1]
		v.mu.Unlock()
		return e
	}
	v.mu.Unlock()
	return symbex.New(v.solver, v.opts.Symbex)
}

// putEngine folds the engine's counters into the aggregate statistics
// and returns it to the pool (warm loop memo and solver session).
func (v *Verifier) putEngine(e *symbex.Engine) {
	st := e.Stats()
	e.ResetStats()
	v.mu.Lock()
	v.stats.SymbexStats.Add(st)
	v.engines = append(v.engines, e)
	v.mu.Unlock()
}

// getSession checks an idle incremental solver session out of the
// pool. The checkout also binds the session to a trace lane (when
// tracing): the caller's goroutine drives the session sequentially
// until putSession, which is exactly the nesting discipline a lane
// needs.
func (v *Verifier) getSession() *smt.IncrementalSession {
	v.mu.Lock()
	if n := len(v.sessions); n > 0 {
		s := v.sessions[n-1]
		v.sessions = v.sessions[:n-1]
		v.mu.Unlock()
		v.tel.bindSession(s, v.tel.getLane())
		return s
	}
	v.mu.Unlock()
	s := v.solver.NewSession()
	v.tel.bindSession(s, v.tel.getLane())
	return s
}

func (v *Verifier) putSession(s *smt.IncrementalSession) {
	if lane := v.tel.laneFor(s); lane != nil {
		v.tel.bindSession(s, nil)
		v.tel.putLane(lane)
	}
	v.mu.Lock()
	v.sessions = append(v.sessions, s)
	v.mu.Unlock()
}

// input returns the Step-1 symbolic input specification.
func (v *Verifier) input() symbex.Input {
	return symbex.DefaultInput(v.opts.MinLen, v.opts.MaxLen)
}

// Pre returns the global assumptions (packet length bounds) under which
// all verdicts hold.
func (v *Verifier) Pre() []*expr.Expr { return v.input().Pre }

// Summarize runs Step 1 for one element, with caching by the program's
// content fingerprint. Concurrent calls for the same program share one
// computation. With Options.Store set, the persistent store is
// consulted before the symbolic engine and updated after a fresh run.
func (v *Verifier) Summarize(e *click.Instance) ([]*symbex.Segment, error) {
	key := e.SummaryKey()
	v.mu.Lock()
	ent, ok := v.cache[key]
	if ok {
		v.stats.SummaryCacheHits++
	} else {
		ent = &summaryEntry{}
		v.cache[key] = ent
	}
	v.mu.Unlock()
	ent.once.Do(func() { ent.segs, ent.merged, ent.err = v.loadOrSummarize(e) })
	if ent.err != nil && errors.Is(ent.err, errUnresolved) {
		// A transient failure — contained engine panic, watchdog
		// interrupt — must not poison the cache: drop the entry so a
		// later admission (or a queued retry) re-runs the engine
		// instead of inheriting this fault forever.
		v.mu.Lock()
		if v.cache[key] == ent {
			delete(v.cache, key)
		}
		v.mu.Unlock()
	}
	return ent.segs, ent.err
}

// loadOrSummarize fills one summary-cache slot: from the persistent
// store when possible, from the engine otherwise (updating the store).
// Store traffic is keyed by StoreKey — the program fingerprint bound to
// the verifier's Step-1 context — never by the bare program key, so a
// store shared between differently-configured verifiers stays sound.
func (v *Verifier) loadOrSummarize(e *click.Instance) ([]*symbex.Segment, bool, error) {
	if v.opts.Store != nil {
		key := StoreKey(e.Program(), v.opts)
		lane := v.tel.getLane()
		sp := lane.Begin("store", "store-load:"+e.Name())
		sum, ok := v.opts.Store.Load(key)
		sp.End()
		v.tel.putLane(lane)
		if ok {
			v.tel.storeLoads.Inc()
			v.countSummary(sum.Segments, sum.Merged, true)
			return sum.Segments, sum.Merged, nil
		}
		v.mu.Lock()
		v.stats.StoreMisses++
		v.mu.Unlock()
		segs, merged, err := v.summarize(e)
		if err == nil {
			lane := v.tel.getLane()
			sp := lane.Begin("store", "store-save:"+e.Name())
			v.opts.Store.Save(key, &symbex.Summary{Segments: segs, Merged: merged})
			sp.End()
			v.tel.putLane(lane)
			v.tel.storeSaves.Inc()
		}
		return segs, merged, err
	}
	return v.summarize(e)
}

// summariesMerged reports whether any cached summary used by the
// pipeline's elements carries the merged (steps-are-upper-bounds) flag.
// Summaries must already be cached (i.e. after a verification ran).
func (v *Verifier) summariesMerged(p *click.Pipeline) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range p.Elements {
		if ent, ok := v.cache[e.SummaryKey()]; ok && ent.merged {
			return true
		}
	}
	return false
}

// countSummary folds one summary's segment counters into the stats.
// fromStore marks summaries served by the persistent store (no engine
// run); their Merged flag still taints step-count exactness.
func (v *Verifier) countSummary(segs []*symbex.Segment, merged, fromStore bool) {
	v.mu.Lock()
	if fromStore {
		v.stats.StoreHits++
		v.stats.SymbexStats.Merged = v.stats.SymbexStats.Merged || merged
	} else {
		v.stats.ElementsSummarized++
	}
	v.stats.SegmentsTotal += len(segs)
	for _, s := range segs {
		if s.IsSuspect() {
			v.stats.Suspects++
		}
	}
	v.mu.Unlock()
}

// summarize is the uncached Step-1 engine run. The second result
// reports whether loop-state merging occurred during this run (making
// the summary's step counts upper bounds; the flag is persisted with
// the artifact). An engine panic is contained here (DESIGN.md §9): the
// possibly-poisoned engine is dropped instead of repooled, and the
// element's summary becomes an unresolved obligation, never a partial
// summary.
func (v *Verifier) summarize(e *click.Instance) (segs []*symbex.Segment, merged bool, err error) {
	defer v.capturePanic(fmt.Sprintf("step-1 summarization of %s", e.Name()), nil, &err)
	lane := v.tel.getLane()
	sp := lane.Begin("step1", "summarize:"+e.Name())
	start := time.Now()
	eng := v.getEngine()
	segs, err = eng.Run(e.Program(), v.input())
	merged = eng.Stats().Merged
	v.putEngine(eng)
	v.tel.summarizeHist.Record(int64(time.Since(start)))
	sp.SetInt("segments", int64(len(segs)))
	sp.End()
	v.tel.putLane(lane)
	if err != nil {
		return nil, false, fmt.Errorf("verify: summarizing %s: %w", e.Name(), err)
	}
	v.countSummary(segs, merged, false)
	return segs, merged, nil
}

// summarizeAll runs Step 1 for every pipeline element, fanning distinct
// element classes out across the worker pool. Its phase span is opened
// here rather than by the callers, so every caller's Step-1 time is
// attributed to the phase.
func (v *Verifier) summarizeAll(elems []*click.Instance) ([][]*symbex.Segment, error) {
	sp := v.tel.main.Begin("phase", "step1:summarize-all")
	defer sp.End()
	out := make([][]*symbex.Segment, len(elems))
	par := v.parallelism()
	if par > len(elems) {
		par = len(elems)
	}
	if par <= 1 {
		for i, e := range elems {
			segs, err := v.Summarize(e)
			if err != nil {
				return nil, err
			}
			out[i] = segs
		}
		return out, nil
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
		first error
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(elems) {
					return
				}
				segs, err := v.Summarize(elems[i])
				if err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
				out[i] = segs
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}

// composed is the symbolic state of a stitched path prefix: the
// pipeline-level analogue of a segment.
type composed struct {
	// elems and ports record the element-level path so far.
	elems []int
	ports []int
	conds []*expr.Expr
	pkt   *expr.Array
	meta  map[string]*expr.Expr
	steps int64
	// reads and writes accumulate state accesses with globally unique
	// variable names and instance-qualified store names; nAcc renumbers
	// each stitched segment's access order into the composed path.
	reads  []symbex.StateAccess
	writes []symbex.StateUpdate
	nAcc   int
	model  *expr.Assignment // cached witness, nil if unknown
}

func (c *composed) fork() *composed {
	n := &composed{
		elems: append([]int{}, c.elems...),
		ports: append([]int{}, c.ports...),
		conds: append([]*expr.Expr{}, c.conds...),
		pkt:   c.pkt,
		meta:  make(map[string]*expr.Expr, len(c.meta)),
		steps: c.steps,
		reads: append([]symbex.StateAccess{}, c.reads...),
		writes: append([]symbex.StateUpdate{},
			c.writes...),
		nAcc:  c.nAcc,
		model: c.model,
	}
	for k, val := range c.meta {
		n.meta[k] = val
	}
	return n
}

// entryState builds the composed state at pipeline ingress: a fresh
// packet array and zeroed metadata annotations, matching the runtime.
func entryState(p *click.Pipeline) *composed {
	meta := map[string]*expr.Expr{}
	for _, e := range p.Elements {
		for slot, w := range e.Program().MetaSlots {
			if _, ok := meta[slot]; !ok {
				meta[slot] = expr.Const(w, 0)
			}
		}
	}
	return &composed{
		pkt:  expr.BaseArray(symbex.PktArrayName),
		meta: meta,
	}
}

// stitch applies segment seg of element pos (instance name inst) to the
// composed prefix, returning the extended state, or nil when the
// stitched constraint is infeasible. This is the paper's Step-2
// substitution: Cp(in) = C_prefix(in) ∧ C_seg(S_prefix(in)). sess is
// the calling walker's incremental solver session.
func (v *Verifier) stitch(sess *smt.IncrementalSession, st *composed, seg *symbex.Segment, pos int, inst string, extraPre []*expr.Expr, lbl string) (*composed, error) {
	sub := expr.NewSubst()
	sub.BindArr(symbex.PktArrayName, st.pkt)
	for slot, val := range st.meta {
		sub.BindVar(symbex.MetaVarPrefix+slot, val)
	}
	// State reads get globally unique names; stores are qualified by the
	// instance so the bad-value analysis can find the owning writes.
	for _, rd := range seg.Reads {
		sub.BindVar(rd.Var.Name, expr.Var(fmt.Sprintf("p%d.%s", pos, rd.Var.Name), rd.Var.Width()))
	}
	out := st.fork()
	out.elems = append(out.elems, pos)
	var newConds []*expr.Expr
	for _, c := range seg.Cond {
		ic := sub.Apply(c)
		if ic.IsTrue() {
			continue
		}
		if ic.IsFalse() {
			v.countInfeasible()
			return nil, nil
		}
		newConds = append(newConds, ic)
	}
	if len(newConds) > 0 {
		feasible, m, _ := v.feasible(sess, st, newConds, extraPre, "stitch", lbl)
		if !feasible {
			v.countInfeasible()
			return nil, nil
		}
		out.conds = append(out.conds, newConds...)
		out.model = m
	}
	out.pkt = sub.ApplyArray(seg.Pkt)
	for slot, val := range seg.Meta {
		out.meta[slot] = sub.Apply(val)
	}
	out.steps += seg.Steps
	for _, rd := range seg.Reads {
		out.reads = append(out.reads, symbex.StateAccess{
			Store: inst + "." + rd.Store,
			Key:   sub.Apply(rd.Key),
			Var:   sub.Apply(rd.Var),
			Seq:   st.nAcc + rd.Seq,
		})
	}
	for _, wr := range seg.Writes {
		out.writes = append(out.writes, symbex.StateUpdate{
			Store: inst + "." + wr.Store,
			Key:   sub.Apply(wr.Key),
			Val:   sub.Apply(wr.Val),
			Seq:   st.nAcc + wr.Seq,
		})
	}
	out.nAcc = st.nAcc + symbex.AccessSpan(seg.Reads, seg.Writes)
	return out, nil
}

func (v *Verifier) countInfeasible() { v.composedInfeasible.Add(1) }

// feasible decides whether the prefix extended by newConds is
// satisfiable on the given session, using the cached witness first. An
// Unknown verdict (conflict budget, deadline, or cancellation) reports
// feasible=true — the sound direction for every property, since paths
// are only ever discharged on Unsat — with unknown=true so callers can
// surface the obligation as unresolved instead of fabricating a verdict.
// kind and lbl attribute the query for tracing and the obligation
// profiler; lbl is empty when neither consumer is active.
func (v *Verifier) feasible(sess *smt.IncrementalSession, st *composed, newConds, extraPre []*expr.Expr, kind, lbl string) (feasible bool, m *expr.Assignment, unknown bool) {
	if st.model != nil {
		ok := true
		for _, c := range newConds {
			if !expr.Eval(c, st.model).IsTrue() {
				ok = false
				break
			}
		}
		if ok {
			return true, st.model, false
		}
	}
	pre := v.Pre()
	cons := make([]*expr.Expr, 0, len(pre)+len(extraPre)+len(st.conds)+len(newConds))
	cons = append(cons, pre...)
	cons = append(cons, extraPre...)
	cons = append(cons, st.conds...)
	cons = append(cons, newConds...)
	v.solverQueries.Add(1)
	sp, started := v.tel.beginSolve(sess, kind, lbl)
	r, m := sess.Check(cons)
	v.tel.recordSolve(sess, kind, lbl, started, sp)
	if r == smt.Unsat {
		return false, nil, false
	}
	if r == smt.Unknown {
		return true, nil, true
	}
	return true, m, false
}

// feasibleRoot is feasible on the root session: only for use under
// visitMu (visit callbacks, the stateful refinement) or after walk
// returns (report construction).
func (v *Verifier) feasibleRoot(st *composed, newConds, extraPre []*expr.Expr, kind, lbl string) (bool, *expr.Assignment, bool) {
	return v.feasible(v.rootSession, st, newConds, extraPre, kind, lbl)
}

// pathEnd describes how a composed path terminated.
type pathEnd struct {
	state  *composed
	disp   ir.Disposition
	crash  *symbex.CrashRecord
	egress int // valid when disp == Emitted (pipeline egress id)
}

// walker drives one composed-path exploration: a bounded pool of
// workers, each with its own incremental solver session, cooperating
// through a task queue. Subtrees are offloaded to the queue when a
// worker slot may be idle and explored inline otherwise, so the walk
// degrades to a plain DFS at Parallelism=1.
type walker struct {
	v         *Verifier
	p         *click.Pipeline
	extraPre  []*expr.Expr
	summaries [][]*symbex.Segment
	visit     func(pathEnd) error

	tasks    chan walkTask
	pending  sync.WaitGroup
	explored atomic.Int64
	stopped  atomic.Bool

	errMu sync.Mutex
	err   error
}

type walkTask struct {
	elem int
	st   *composed
}

func (w *walker) recordErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.stopped.Store(true)
}

// trySpawn offloads a subtree to the pool without blocking; the caller
// explores it inline when the queue is full (or the walk is sequential).
func (w *walker) trySpawn(elem int, st *composed) bool {
	if w.tasks == nil {
		return false
	}
	w.pending.Add(1)
	select {
	case w.tasks <- walkTask{elem, st}:
		return true
	default:
		w.pending.Done()
		return false
	}
}

// doVisit serializes terminal-path callbacks (they mutate report state
// and may query the verifier's root session).
func (w *walker) doVisit(end pathEnd) error {
	w.v.visitMu.Lock()
	defer w.v.visitMu.Unlock()
	return w.visit(end)
}

// safeDFS runs one walk task under panic containment: a panic anywhere
// in the subtree — stitching, feasibility solving, a visit callback —
// is converted into an unresolved-obligation error, and the worker's
// session is reset so poisoned SAT state cannot serve later queries.
func (w *walker) safeDFS(sess *smt.IncrementalSession, elem int, st *composed) (err error) {
	defer func() {
		var pe *panicError
		if err == nil || !errors.As(err, &pe) {
			return
		}
		// The panic may have unwound through a visit callback mid-query
		// on the shared root session; don't trust that instance either.
		w.v.visitMu.Lock()
		w.v.rootSession.Reset()
		w.v.visitMu.Unlock()
	}()
	defer w.v.capturePanic("step-2 composed-path walk", sess, &err)
	return w.dfs(sess, elem, st)
}

// dfs explores the subtree rooted at (elem, st) on the worker's session.
func (w *walker) dfs(sess *smt.IncrementalSession, elem int, st *composed) error {
	if w.stopped.Load() {
		return nil
	}
	// A watchdog interrupt stops exploration outright: with the solver
	// cancelled every feasibility query would come back Unknown (treated
	// feasible), so continuing would enumerate the full unpruned tree to
	// no benefit. The whole walk degrades to one unresolved obligation.
	if w.v.interrupt.Load() {
		return errInterrupted
	}
	inst := w.p.Elements[elem].Name()
	// The obligation label names the stitched-path extension this
	// element contributes. Built only when the tracer or the profiler
	// will consume it — it costs a string per (prefix, element) pair.
	lbl := ""
	if w.v.tel.active() {
		if len(st.elems) == 0 {
			lbl = inst
		} else {
			lbl = pathName(w.p, st) + " -> " + inst
		}
	}
	for _, seg := range w.summaries[elem] {
		next, err := w.v.stitch(sess, st, seg, elem, inst, w.extraPre, lbl)
		if err != nil {
			return err
		}
		if next == nil {
			continue
		}
		terminal := false
		end := pathEnd{state: next, egress: -1}
		switch seg.Disposition {
		case ir.Crashed, ir.Dropped:
			terminal = true
			end.disp = seg.Disposition
			end.crash = seg.Crash
		case ir.Emitted:
			next.ports = append(next.ports, seg.Port)
			edge := w.p.Edges[elem][seg.Port]
			if edge.To < 0 {
				terminal = true
				end.disp = ir.Emitted
				end.egress = w.p.EgressID(elem, seg.Port)
			} else if !w.trySpawn(edge.To, next) {
				if err := w.dfs(sess, edge.To, next); err != nil {
					return err
				}
			}
		}
		if terminal {
			n := w.explored.Add(1)
			w.v.composedPaths.Add(1)
			if lane := w.v.tel.laneFor(sess); lane != nil {
				lane.Instant("step2", "path:"+end.disp.String())
			}
			if err := w.doVisit(end); err != nil {
				return err
			}
			if n > maxComposedPaths {
				return fmt.Errorf("verify: more than %d composed paths", maxComposedPaths)
			}
		}
		if w.stopped.Load() {
			return nil
		}
	}
	return nil
}

// walk explores every feasible composed path of the pipeline, invoking
// visit for each terminating path (crash, drop, or egress). extraPre
// adds property-specific input assumptions (e.g. reachability
// preconditions). Visit callbacks are serialized; path order is
// unspecified when Parallelism > 1.
func (v *Verifier) walk(p *click.Pipeline, extraPre []*expr.Expr, visit func(pathEnd) error) error {
	summaries, err := v.summarizeAll(p.Elements)
	if err != nil {
		return err
	}
	sp := v.tel.main.Begin("phase", "step2:walk")
	defer sp.End()
	w := &walker{
		v:         v,
		p:         p,
		extraPre:  extraPre,
		summaries: summaries,
		visit:     visit,
	}
	root := entryState(p)
	par := v.parallelism()
	if par <= 1 {
		sess := v.getSession()
		err := w.safeDFS(sess, p.Entry, root)
		v.putSession(sess)
		if err != nil {
			return err
		}
		return w.err
	}
	w.tasks = make(chan walkTask, 4*par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := v.getSession()
			defer v.putSession(sess)
			for t := range w.tasks {
				if err := w.safeDFS(sess, t.elem, t.st); err != nil {
					w.recordErr(err)
				}
				w.pending.Done()
			}
		}()
	}
	w.pending.Add(1)
	w.tasks <- walkTask{p.Entry, root}
	go func() {
		w.pending.Wait()
		close(w.tasks)
	}()
	wg.Wait()
	return w.err
}

// pathName renders a composed path for reports.
func pathName(p *click.Pipeline, st *composed) string {
	out := ""
	for i, e := range st.elems {
		if i > 0 {
			out += " -> "
		}
		out += p.Elements[e].Name()
		if i < len(st.ports) {
			out += fmt.Sprintf("[%d]", st.ports[i])
		}
	}
	return out
}

// sortWitnesses canonicalizes report order: parallel walks discover
// paths in schedule order, and reports must not depend on the schedule.
func sortWitnesses(ws []Witness) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Path != ws[j].Path {
			return ws[i].Path < ws[j].Path
		}
		return ws[i].Detail < ws[j].Detail
	})
}

// sortedMetaSlots returns the pipeline's metadata slots in stable order,
// for deterministic reports.
func sortedMetaSlots(p *click.Pipeline) []string {
	set := map[string]bv.Width{}
	for _, e := range p.Elements {
		for s, w := range e.Program().MetaSlots {
			set[s] = w
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
