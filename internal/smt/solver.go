package smt

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vsd/internal/expr"
)

// Result is the verdict of a satisfiability query.
type Result int8

// Query verdicts.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Options configures a Solver. The zero value enables every technique;
// DisableIntervals exists for the ablation benchmarks and as the
// reference run of the interval tests.
type Options struct {
	// DisableIntervals turns off the interval/constant pre-analysis, so
	// every query goes through bit-blasting.
	DisableIntervals bool
	// MaxConflicts bounds each SAT search; 0 means the default budget.
	MaxConflicts int64
	// QueryTimeout bounds each SAT search's wall time; 0 means none. An
	// exhausted deadline yields Unknown, never a false verdict.
	QueryTimeout time.Duration
	// Interrupt, when non-nil, is an external cancellation flag checked
	// during every SAT search: setting it makes in-flight and future
	// solves return Unknown. It is the watchdog's lever — a job that
	// exceeds its wall budget is cancelled here even when QueryTimeout is
	// unset or the search is stuck in a propagation storm between
	// deadline checks.
	Interrupt *atomic.Bool
	// FaultHook, when non-nil, is consulted before each SAT search by the
	// fault-injection harness (internal/faultinject): it may force the
	// search to return Unknown, to behave as if its deadline expired, or
	// to panic — exercising the degradation ladder without real faults.
	// Production configurations leave it nil.
	FaultHook func() SolveFault
}

// SolveFault is a fault-injection directive for one SAT search.
type SolveFault int8

// Solver-level injectable faults.
const (
	// NoFault runs the search normally.
	NoFault SolveFault = iota
	// ForceUnknown makes the search return Unknown immediately, as if
	// its conflict budget were exhausted.
	ForceUnknown
	// ForceTimeout makes the search return Unknown as if its wall
	// deadline had expired.
	ForceTimeout
	// ForcePanic makes the search panic, exercising the engine-panic
	// containment (recover in verify workers, never a downed daemon).
	ForcePanic
)

// DefaultMaxConflicts bounds a single SAT search unless overridden.
const DefaultMaxConflicts = 2_000_000

// maxConflicts resolves the per-search conflict budget: 0 selects the
// default, negative values mean unbounded.
func (o Options) maxConflicts() int64 {
	if o.MaxConflicts != 0 {
		return o.MaxConflicts
	}
	return DefaultMaxConflicts
}

// Stats counts solver work, for the evaluation harness.
type Stats struct {
	Queries         int64 // total Check calls
	FoldedDecided   int64 // decided by constant folding alone
	IntervalDecided int64 // decided by the interval pre-pass
	SatCalls        int64 // queries that reached the SAT core
	SatConflicts    int64 // conflicts accumulated across SAT calls
	CacheHits       int64 // queries answered from the verdict cache
	// Incremental-session counters.
	SessionsOpened int64 // IncrementalSession instances created (incl. recycles)
	ClausesReused  int64 // learnt clauses carried into assumption solves
	// CNF-minimization counters: the blaster's structural gate cache and
	// the emitted formula size.
	GateCacheHits int64 // Tseitin gates served from the structural cache
	CNFVars       int64 // SAT variables allocated, summed over blasted queries
	CNFClauses    int64 // problem clauses emitted, summed over blasted queries
	// SAT-core heuristics counters.
	MinimizedLits int64 // literals removed by recursive learnt-clause minimization
	LearntLits    int64 // literals in recorded learnt clauses (after minimization)
	LearntClauses int64 // learnt clauses recorded
	GlueSum       int64 // sum of learnt-clause LBDs; avg glue = GlueSum/LearntClauses
	LowGlue       int64 // learnt clauses with LBD <= 2 ("glue" clauses)
	BinaryProps   int64 // unit propagations served by the binary watch lists
	Propagations  int64 // trail literals propagated by the SAT core
	AssumLevels   int64 // assumption literals passed to SAT solves, summed
	Decisions     int64 // decisions made by the SAT core
	Restarts      int64 // Luby restarts performed
	// Preprocessing and budget counters.
	PreprocessRuns   int64 // CNF preprocessing passes executed
	LitsStrengthened int64 // literals removed by self-subsumption strengthening
	Unknowns         int64 // SAT searches ending Unknown (budget/deadline/cancel)
	// Robustness counters (DESIGN.md §9).
	InjectedFaults int64 // searches redirected by Options.FaultHook
	Interrupted    int64 // searches cancelled through Options.Interrupt
}

// Add accumulates o into s. The verifier sums the counters of its
// solvers with this.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.FoldedDecided += o.FoldedDecided
	s.IntervalDecided += o.IntervalDecided
	s.SatCalls += o.SatCalls
	s.SatConflicts += o.SatConflicts
	s.CacheHits += o.CacheHits
	s.SessionsOpened += o.SessionsOpened
	s.ClausesReused += o.ClausesReused
	s.GateCacheHits += o.GateCacheHits
	s.CNFVars += o.CNFVars
	s.CNFClauses += o.CNFClauses
	s.MinimizedLits += o.MinimizedLits
	s.LearntLits += o.LearntLits
	s.LearntClauses += o.LearntClauses
	s.GlueSum += o.GlueSum
	s.LowGlue += o.LowGlue
	s.BinaryProps += o.BinaryProps
	s.Propagations += o.Propagations
	s.AssumLevels += o.AssumLevels
	s.Decisions += o.Decisions
	s.Restarts += o.Restarts
	s.PreprocessRuns += o.PreprocessRuns
	s.LitsStrengthened += o.LitsStrengthened
	s.Unknowns += o.Unknowns
	s.InjectedFaults += o.InjectedFaults
	s.Interrupted += o.Interrupted
}

// Solver decides satisfiability of conjunctions of 1-bit bitvector
// expressions, producing models (including packet-array contents) for
// satisfiable queries. Queries run on the incremental sessions it hands
// out (NewSession); the Solver holds what they share — options,
// statistics and the verdict cache — and is safe for concurrent use by
// many sessions.
//
// Verdicts are cached by the (order-insensitive) atom set: symbolic
// execution and composition re-issue structurally identical queries —
// the same loop prefix reached through different downstream branches —
// and expression interning makes the atom-set key exact.
type Solver struct {
	Opts  Options
	stats struct {
		queries, folded, interval, satCalls, satConflicts, cacheHits atomic.Int64
		sessions, clausesReused                                      atomic.Int64
		gateHits, cnfVars, cnfClauses                                atomic.Int64
		minimizedLits, learntLits, learnts, glueSum, lowGlue         atomic.Int64
		binaryProps, propagations, decisions, restarts, assumLevels  atomic.Int64
		preRuns, strengthened, unknowns                              atomic.Int64
		injected, interrupted                                        atomic.Int64
	}
	mu    sync.Mutex
	cache map[uint64][]cacheEntry
}

type cacheEntry struct {
	atoms []*expr.Expr // sorted by pointer for exact matching
	res   Result
	model *expr.Assignment
}

// New returns a solver with the given options.
func New(opts Options) *Solver {
	return &Solver{Opts: opts, cache: map[uint64][]cacheEntry{}}
}

// cacheKey hashes the atom set from the per-node structural hashes
// memoized at construction (no DAG re-walking); atoms must be sorted by
// ID so the key is order-insensitive.
func cacheKey(atoms []*expr.Expr) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, a := range atoms {
		h ^= (a.Hash() ^ a.ID()) * 0x100000001b3
		h *= 0xff51afd7ed558ccd
	}
	return h
}

func sortAtoms(atoms []*expr.Expr) {
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].ID() < atoms[j].ID() })
}

func sameAtoms(a, b []*expr.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *Solver) cacheGet(key uint64, atoms []*expr.Expr) (Result, *expr.Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.cache[key] {
		if sameAtoms(e.atoms, atoms) {
			return e.res, e.model, true
		}
	}
	return Unknown, nil, false
}

// cacheMaxEntries bounds memory; the cache resets wholesale when full
// (simple and effective at verification scale).
const cacheMaxEntries = 1 << 16

func (s *Solver) cachePut(key uint64, atoms []*expr.Expr, res Result, m *expr.Assignment) {
	// Copy here, on the insert path only: callers reuse their atom slices
	// and the hit path must not pay for a defensive copy.
	stored := append([]*expr.Expr{}, atoms...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cache) >= cacheMaxEntries {
		s.cache = map[uint64][]cacheEntry{}
	}
	s.cache[key] = append(s.cache[key], cacheEntry{atoms: stored, res: res, model: m})
}

// Stats returns a snapshot of the work counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Queries:          s.stats.queries.Load(),
		FoldedDecided:    s.stats.folded.Load(),
		IntervalDecided:  s.stats.interval.Load(),
		SatCalls:         s.stats.satCalls.Load(),
		SatConflicts:     s.stats.satConflicts.Load(),
		CacheHits:        s.stats.cacheHits.Load(),
		SessionsOpened:   s.stats.sessions.Load(),
		ClausesReused:    s.stats.clausesReused.Load(),
		GateCacheHits:    s.stats.gateHits.Load(),
		CNFVars:          s.stats.cnfVars.Load(),
		CNFClauses:       s.stats.cnfClauses.Load(),
		MinimizedLits:    s.stats.minimizedLits.Load(),
		LearntLits:       s.stats.learntLits.Load(),
		LearntClauses:    s.stats.learnts.Load(),
		GlueSum:          s.stats.glueSum.Load(),
		LowGlue:          s.stats.lowGlue.Load(),
		BinaryProps:      s.stats.binaryProps.Load(),
		Propagations:     s.stats.propagations.Load(),
		AssumLevels:      s.stats.assumLevels.Load(),
		Decisions:        s.stats.decisions.Load(),
		Restarts:         s.stats.restarts.Load(),
		PreprocessRuns:   s.stats.preRuns.Load(),
		LitsStrengthened: s.stats.strengthened.Load(),
		Unknowns:         s.stats.unknowns.Load(),
		InjectedFaults:   s.stats.injected.Load(),
		Interrupted:      s.stats.interrupted.Load(),
	}
}

// blasterCounters snapshots a blaster's CNF and SAT-core counters so
// interleaved solves on a shared instance (incremental sessions) can
// attribute deltas to individual queries.
type blasterCounters struct {
	sat      SatCounters
	gateHits int64
	vars     int64
}

// foldBlasterCounters adds the blaster's counter growth since prev to
// the solver statistics and returns the new snapshot. Safe for
// concurrent use (the statistics are atomics).
func (s *Solver) foldBlasterCounters(b *blaster, prev blasterCounters) blasterCounters {
	cur := blasterCounters{
		sat:      b.sat.Counters(),
		gateHits: b.gateHits,
		vars:     int64(b.sat.NumVars()),
	}
	s.stats.satConflicts.Add(cur.sat.Conflicts - prev.sat.Conflicts)
	s.stats.minimizedLits.Add(cur.sat.MinimizedLits - prev.sat.MinimizedLits)
	s.stats.learntLits.Add(cur.sat.LearntLits - prev.sat.LearntLits)
	s.stats.learnts.Add(cur.sat.Learnts - prev.sat.Learnts)
	s.stats.glueSum.Add(cur.sat.GlueSum - prev.sat.GlueSum)
	s.stats.lowGlue.Add(cur.sat.LowGlue - prev.sat.LowGlue)
	s.stats.binaryProps.Add(cur.sat.BinaryProps - prev.sat.BinaryProps)
	s.stats.propagations.Add(cur.sat.Propagations - prev.sat.Propagations)
	s.stats.assumLevels.Add(cur.sat.AssumLevels - prev.sat.AssumLevels)
	s.stats.decisions.Add(cur.sat.Decisions - prev.sat.Decisions)
	s.stats.restarts.Add(cur.sat.Restarts - prev.sat.Restarts)
	s.stats.cnfVars.Add(cur.vars - prev.vars)
	s.stats.cnfClauses.Add(cur.sat.ClausesAdded - prev.sat.ClausesAdded)
	s.stats.gateHits.Add(cur.gateHits - prev.gateHits)
	s.stats.preRuns.Add(cur.sat.PreprocessRuns - prev.sat.PreprocessRuns)
	s.stats.strengthened.Add(cur.sat.LitsStrengthened - prev.sat.LitsStrengthened)
	return cur
}

// satSolve runs one SAT search under the configured budgets: the
// conflict cap and wall deadline from Options and the Interrupt flag.
// A CNF that has grown enough since the last pass is preprocessed first.
// The verdict is exact (Sat/Unsat) or Unknown; budget exhaustion never
// fabricates a verdict.
func (s *Solver) satSolve(sat *SatSolver, assumptions ...Lit) SatResult {
	if sat.NeedPreprocess() {
		sat.Preprocess()
	}
	// Fault injection first: a forced verdict must not consume budget, so
	// an injected fault reproduces identically regardless of solver state.
	if s.Opts.FaultHook != nil {
		switch s.Opts.FaultHook() {
		case ForceUnknown, ForceTimeout:
			s.stats.injected.Add(1)
			s.stats.unknowns.Add(1)
			return SatUnknown
		case ForcePanic:
			s.stats.injected.Add(1)
			panic("smt: injected solver panic (faultinject)")
		}
	}
	if s.Opts.Interrupt != nil && s.Opts.Interrupt.Load() {
		s.stats.interrupted.Add(1)
		s.stats.unknowns.Add(1)
		return SatUnknown
	}
	sat.Interrupt = s.Opts.Interrupt
	sat.MaxConflicts = s.Opts.maxConflicts()
	sat.Deadline = time.Time{}
	if s.Opts.QueryTimeout > 0 {
		sat.Deadline = time.Now().Add(s.Opts.QueryTimeout)
	}
	verdict := sat.Solve(assumptions...)
	if verdict == SatUnknown {
		s.stats.unknowns.Add(1)
		if s.Opts.Interrupt != nil && s.Opts.Interrupt.Load() {
			s.stats.interrupted.Add(1)
		}
	}
	return verdict
}

// preQuery is the outcome of preSolve for an undecided query: the
// canonical atom set to solve and its verdict-cache key.
type preQuery struct {
	atoms []*expr.Expr
	key   uint64
}

// preSolve runs the cheap per-query passes in front of a session's SAT
// core: flattening and constant folding, canonical ordering and
// deduplication, the verdict cache, and the interval pre-analysis. When
// done is true the query is decided and res/m hold the verdict;
// otherwise pq describes the undecided query. The returned slices may
// alias the caller's scratch space — they are only valid until the next
// preSolve call on the same goroutine.
func (s *Solver) preSolve(constraints []*expr.Expr) (pq preQuery, res Result, m *expr.Assignment, done bool) {
	s.stats.queries.Add(1)
	atoms, early := flattenAtoms(constraints)
	if early != Unknown {
		s.stats.folded.Add(1)
		if early == Sat {
			return preQuery{}, Sat, expr.NewAssignment(), true
		}
		return preQuery{}, Unsat, nil, true
	}
	sortAtoms(atoms)
	atoms = dedupAtoms(atoms)
	key := cacheKey(atoms)
	if r, cm, ok := s.cacheGet(key, atoms); ok {
		s.stats.cacheHits.Add(1)
		return preQuery{}, r, cm, true
	}
	if !s.Opts.DisableIntervals {
		switch verdict, model := preAnalyze(atoms); verdict {
		case intervalUnsat:
			s.stats.interval.Add(1)
			s.cachePut(key, atoms, Unsat, nil)
			return preQuery{}, Unsat, nil, true
		case intervalSat:
			s.stats.interval.Add(1)
			s.cachePut(key, atoms, Sat, model)
			return preQuery{}, Sat, model, true
		}
	}
	return preQuery{atoms: atoms, key: key}, Unknown, nil, false
}

// selectInfo pairs a KSelect node with its select-free rewritten index.
type selectInfo struct {
	sel *expr.Expr
	idx *expr.Expr
}
