// Package smt implements the constraint solver behind the dataplane
// verifier: a quantifier-free bitvector (QF_BV) decision procedure with
// byte-array (packet) support.
//
// The pipeline is the classical eager one:
//
//  1. an interval/constant pre-analysis that decides many queries
//     produced by segment stitching without touching the SAT core;
//  2. Ackermann-style elimination of packet-array reads;
//  3. bit-blasting of the remaining bitvector formula to CNF through a
//     structurally-hashed gate cache;
//  4. a CDCL SAT solver (two-watched-literal propagation with dedicated
//     binary-clause watch lists, first-UIP conflict analysis with
//     recursive learnt-clause minimization, VSIDS-style activities,
//     phase saving, LBD-aware clause-database reduction, Luby restarts);
//  5. model reconstruction back to bitvector variables and packet bytes.
//
// This file implements the SAT core. It is deliberately self-contained:
// literals, clauses and the trail use the MiniSat conventions, which keeps
// the implementation auditable against the literature.
//
// Storage is arena-based: clause headers live in one flat slice, their
// literals in another, and every clause reference is an int32 index
// (cref). Nothing in the clause database holds a pointer, which keeps
// the GC out of propagation entirely and halves watcher size versus a
// pointer-based layout — unit propagation is memory-bound at
// verification scale, so locality here is worth more than any heuristic
// tweak.
package smt

import (
	"sort"
	"sync/atomic"
	"time"
)

// A Lit is a literal: variable index shifted left once, low bit = negation.
type Lit int32

// MkLit builds a literal for variable v (0-based); neg selects ¬v.
func MkLit(v int32, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int32 { return int32(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Flip returns the complementary literal.
func (l Lit) Flip() Lit { return l ^ 1 }

// lbool follows the MiniSat encoding: true and false differ only in the
// low bit, so value(l) is a single xor with the literal's sign — the
// hottest operation in unit propagation. The assignment array stores
// only lTrue/lFalse/lUndef; xor against a negated literal can surface
// lUndef as 3, so undefined results must be tested with >= lUndef (or by
// falling through a lTrue/lFalse switch), never ==.
type lbool uint8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// cref indexes a clause header in SatSolver.cdb; crefNil means "no
// clause" (decision and assumption reasons).
type cref int32

const crefNil cref = -1

// clause is a header into the literal arena: the clause's literals are
// SatSolver.larena[off : off+n]. Headers are plain values in a flat
// slice; code must never hold a *clause across an append to cdb.
type clause struct {
	off     int32
	n       int32
	act     float32
	lbd     int32 // literal-block distance ("glue"); learnt clauses only
	learnt  bool
	deleted bool
}

// watcher is a two-watched-literal entry. blocker is a literal whose
// truth satisfies the clause without touching clause memory.
type watcher struct {
	c       cref
	blocker Lit
}

// binWatch is a binary-clause watch: when the watched literal becomes
// false, other is implied directly — no clause lookup, no search for a
// replacement watch. The cref is only needed to record the implication
// reason or report a conflict.
type binWatch struct {
	other Lit
	c     cref
}

// SatResult is the verdict of a SAT call.
type SatResult int8

// SAT solver verdicts.
const (
	SatUnknown SatResult = iota
	SatSat
	SatUnsat
)

func (r SatResult) String() string {
	switch r {
	case SatSat:
		return "sat"
	case SatUnsat:
		return "unsat"
	}
	return "unknown"
}

// SatCounters is a snapshot of the core's work counters. Callers that
// interleave solves on a shared instance (incremental sessions) subtract
// snapshots to attribute work to individual queries.
type SatCounters struct {
	Decisions     int64
	Propagations  int64
	BinaryProps   int64 // propagations served by the binary watch lists
	Conflicts     int64
	Restarts      int64
	MinimizedLits int64 // literals removed by recursive learnt-clause minimization
	LearntLits    int64 // literals in learnt clauses after minimization
	Learnts       int64 // learnt clauses recorded
	GlueSum       int64 // sum of learnt-clause LBDs at recording time
	LowGlue       int64 // learnt clauses recorded with LBD <= 2 ("glue" clauses)
	ClausesAdded  int64 // problem clauses accepted by AddClause (incl. units)
	AssumLevels   int64 // assumption literals passed to Solve, summed

	// Preprocessing (preprocess.go).
	PreprocessRuns   int64
	LitsStrengthened int64 // literals removed by self-subsumption strengthening
}

// SatSolver is a CDCL SAT solver. The zero value is not usable; call
// NewSatSolver.
type SatSolver struct {
	cdb     []clause // clause headers, problem and learnt
	larena  []Lit    // literal arena backing every clause
	clauses []cref
	learnts []cref

	watches    [][]watcher // indexed by literal; clauses of length >= 3
	binWatches [][]binWatch

	assign     []lbool // indexed by variable
	level      []int32
	reason     []cref
	trail      []Lit
	trailLim   []int32
	qhead      int
	activity   []float64
	varInc     float64
	claInc     float64
	polarity   []bool // phase saving
	order      *varHeap
	orderStale bool // heap dropped by a bulk cancel; rebuild before deciding
	seen       []bool
	ok         bool // false once a top-level conflict is found

	// Conflict-analysis scratch (reused across conflicts).
	learntBuf    []Lit
	analyzeStack []Lit
	toClear      []int32
	lbdSeen      []int64 // per-level stamp for LBD computation
	lbdStamp     int64

	cnt SatCounters

	// deadLits counts arena literals belonging to deleted clauses; when
	// they dominate, reduceDB compacts the arenas.
	deadLits int

	// restartBase, reduceMin and compactMin scale the Luby restart
	// schedule, the reduceDB floor, and the arena-compaction floor.
	// Tests lower them so small instances reach the restart, deletion,
	// and compaction machinery.
	restartBase int64
	reduceMin   int
	compactMin  int

	// MaxConflicts bounds the search; <=0 means unbounded. When the
	// budget is exhausted Solve returns SatUnknown.
	MaxConflicts int64

	// Deadline, when nonzero, bounds the search's wall time; Interrupt,
	// when non-nil, is a caller-owned cancellation flag (the watchdog's
	// lever). Either makes Solve return SatUnknown.
	Deadline  time.Time
	Interrupt *atomic.Bool

	// model is the assignment snapshot of the last SatSat answer, kept
	// separate from assign because the next Solve rewinds the trail.
	model []lbool

	// preClauses is the problem-clause count at the last preprocessing
	// run (0 = never ran); NeedPreprocess compares against it.
	preClauses int
}

// NewSatSolver returns an empty solver.
func NewSatSolver() *SatSolver {
	s := &SatSolver{varInc: 1, claInc: 1, ok: true,
		restartBase: lubyRestartBase, reduceMin: reduceDBMin, compactMin: compactDBMin}
	s.order = &varHeap{act: &s.activity}
	return s
}

// lits returns clause c's literals (aliasing the arena).
func (s *SatSolver) lits(c cref) []Lit {
	h := &s.cdb[c]
	return s.larena[h.off : h.off+h.n]
}

// alloc copies lits into the arena and returns the new clause's cref.
func (s *SatSolver) alloc(lits []Lit, learnt bool) cref {
	off := int32(len(s.larena))
	s.larena = append(s.larena, lits...)
	c := cref(len(s.cdb))
	s.cdb = append(s.cdb, clause{off: off, n: int32(len(lits)), learnt: learnt})
	return c
}

// NewVar introduces a fresh variable and returns its index.
func (s *SatSolver) NewVar() int32 {
	v := int32(len(s.assign))
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefNil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars returns the number of variables allocated.
func (s *SatSolver) NumVars() int { return len(s.assign) }

// NumLearnts returns the number of learnt clauses currently retained.
// Incremental sessions report this as "clauses reused": conflict clauses
// carried into a later assumption solve.
func (s *SatSolver) NumLearnts() int { return len(s.learnts) }

// Stats returns the number of decisions, propagations and conflicts seen.
func (s *SatSolver) Stats() (decisions, propagations, conflicts int64) {
	return s.cnt.Decisions, s.cnt.Propagations, s.cnt.Conflicts
}

// Counters returns a snapshot of all work counters.
func (s *SatSolver) Counters() SatCounters { return s.cnt }

func (s *SatSolver) value(l Lit) lbool { return s.assign[l.Var()] ^ lbool(l&1) }

// AddClause adds a clause; it returns false if the formula is already
// unsatisfiable at the top level. Clauses may be added between Solve
// calls (the incremental Session does) and, except for units, without
// rewinding the search trail: simplification consults only permanent
// (level-0) assignments, and the watch pair is chosen so the
// two-watched-literal invariant holds under whatever trail is standing.
// The literal slice is copied into the solver's arena; small variadic
// argument slices stay on the caller's stack.
func (s *SatSolver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if !s.addClause(lits) {
		return false
	}
	s.cnt.ClausesAdded++
	return true
}

// addClause simplifies and attaches one problem clause, mutating lits in
// place. It returns false if the formula became unsatisfiable at the top
// level.
func (s *SatSolver) addClause(lits []Lit) bool {
	// Simplify: remove permanently-false literals and duplicates; detect
	// tautologies and permanently-satisfied clauses.
	out := lits[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return true // satisfied at level 0
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // permanently false
			}
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Flip() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		// A unit must hold from level 0 on; this is the one case that
		// has to rewind the trail.
		s.cancelUntil(0)
		if !s.enqueue(out[0], crefNil) {
			s.ok = false
			return false
		}
		if conf := s.propagate(); conf != crefNil {
			s.ok = false
			return false
		}
		return true
	}
	// Move the two best watch candidates to the front: non-false
	// literals first, then false literals assigned at the highest level.
	rank := func(l Lit) int32 {
		if s.value(l) != lFalse {
			return 1 << 30
		}
		return s.level[l.Var()]
	}
	for i := 0; i < 2; i++ {
		best := i
		for k := i + 1; k < len(out); k++ {
			if rank(out[k]) > rank(out[best]) {
				best = k
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	if s.value(out[0]) == lFalse {
		// Conflicting under the current trail (the new clause contradicts
		// the standing model): rewind fully, after which every literal is
		// unassigned and any watch pair is valid.
		s.cancelUntil(0)
	}
	c := s.alloc(out, false)
	if s.value(out[1]) == lFalse && s.value(out[0]) >= lUndef {
		// Unit under the current trail: imply the remaining literal now
		// so the falsified watch is never left unserved. The implication
		// is propagated lazily by the next Solve.
		s.enqueue(s.lits(c)[0], c)
	}
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

func (s *SatSolver) watchClause(c cref) {
	lits := s.lits(c)
	if len(lits) == 2 {
		s.binWatches[lits[0].Flip()] = append(s.binWatches[lits[0].Flip()], binWatch{lits[1], c})
		s.binWatches[lits[1].Flip()] = append(s.binWatches[lits[1].Flip()], binWatch{lits[0], c})
		return
	}
	s.watches[lits[0].Flip()] = append(s.watches[lits[0].Flip()], watcher{c, lits[1]})
	s.watches[lits[1].Flip()] = append(s.watches[lits[1].Flip()], watcher{c, lits[0]})
}

func (s *SatSolver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assign[v] = lbool(l & 1) // positive literal -> lTrue(0), negated -> lFalse(1)
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *SatSolver) propagate() cref {
	// Propagations is counted by queue positions consumed (maintained on
	// every exit path); per-literal counter updates are too hot here.
	start := s.qhead
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		// Binary clauses first: the implied literal is stored in the
		// watch itself, so each entry is a value test plus (at most) an
		// enqueue — no clause memory is touched on the fast path.
		for _, bw := range s.binWatches[p] {
			switch s.value(bw.other) {
			case lTrue:
				continue
			case lFalse:
				s.cnt.Propagations += int64(s.qhead - start)
				s.qhead = len(s.trail)
				return bw.c
			}
			s.cnt.BinaryProps++
			s.enqueue(bw.other, bw.c)
		}
		pf := p.Flip()
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			h := &s.cdb[w.c]
			if h.deleted {
				continue
			}
			lits := s.larena[h.off : h.off+h.n]
			// Ensure the false literal is lits[1].
			if lits[0] == pf {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{w.c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Flip()] = append(s.watches[lits[1].Flip()], watcher{w.c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, w)
			if s.value(first) == lFalse {
				// Conflict: keep the remaining watchers, restore and bail.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.cnt.Propagations += int64(s.qhead - start)
				s.qhead = len(s.trail)
				return w.c
			}
			s.enqueue(first, w.c)
		}
		s.watches[p] = kept
	}
	s.cnt.Propagations += int64(s.qhead - start)
	return crefNil
}

func (s *SatSolver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *SatSolver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	// Unwinding a large trail slice pushes every variable back into the
	// decision heap at O(log n) apiece; past a threshold it is cheaper to
	// drop the heap and rebuild it lazily in one O(n) heapify at the next
	// decision (pickBranchVar).
	bulk := (len(s.trail)-int(s.trailLim[lvl]))*16 > len(s.assign)
	for i := len(s.trail) - 1; i >= int(s.trailLim[lvl]); i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = crefNil
		if !bulk {
			s.order.push(v)
		}
	}
	if bulk {
		s.orderStale = true
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *SatSolver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *SatSolver) bumpClause(c cref) {
	s.cdb[c].act += float32(s.claInc)
	if s.cdb[c].act > 1e20 {
		for _, l := range s.learnts {
			s.cdb[l].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// computeLBD returns the literal-block distance of lits: the number of
// distinct (non-root) decision levels among them. Low-LBD clauses link
// few decision blocks and empirically stay useful, so reduceDB protects
// them (Audemard & Simon's "glue").
func (s *SatSolver) computeLBD(lits []Lit) int32 {
	s.lbdStamp++
	lbd := int32(0)
	for _, l := range lits {
		lvl := s.level[l.Var()]
		if lvl == 0 {
			continue
		}
		for int32(len(s.lbdSeen)) <= lvl {
			s.lbdSeen = append(s.lbdSeen, 0)
		}
		if s.lbdSeen[lvl] != s.lbdStamp {
			s.lbdSeen[lvl] = s.lbdStamp
			lbd++
		}
	}
	return lbd
}

// abstractLevel maps a variable's decision level onto a 32-bit signature
// used to cheaply prune the redundancy search in litRedundant.
func (s *SatSolver) abstractLevel(v int32) uint32 { return 1 << (uint(s.level[v]) & 31) }

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first, recursively minimized), the backtrack
// level, and the clause's LBD. The returned slice aliases the solver's
// scratch buffer; record copies it into the arena.
func (s *SatSolver) analyze(conf cref) ([]Lit, int32, int32) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	s.toClear = s.toClear[:0]
	c := conf
	for {
		if s.cdb[c].learnt {
			s.bumpClause(c)
			// Glucose-style LBD refresh: a learnt clause involved in a new
			// conflict gets its glue re-evaluated under the current trail,
			// so clauses that became structurally tighter gain protection.
			if s.cdb[c].lbd > 2 {
				if nl := s.computeLBD(s.lits(c)); nl < s.cdb[c].lbd {
					s.cdb[c].lbd = nl
				}
			}
		}
		pv := int32(-1)
		if p != -1 {
			pv = p.Var()
		}
		for _, q := range s.lits(c) {
			v := q.Var()
			if v != pv && !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.toClear = append(s.toClear, v)
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
		// The implied literal of the reason clause is skipped by variable
		// (pv): binary reasons keep their blast-time literal order.
	}
	learnt[0] = p.Flip()

	// Recursive (MiniSat ccmin) minimization: a literal whose reason
	// chain bottoms out in other learnt literals (or root assignments)
	// is implied by the rest of the clause and can be dropped.
	var abstract uint32
	for _, q := range learnt[1:] {
		abstract |= s.abstractLevel(q.Var())
	}
	kept := learnt[:1]
	for _, q := range learnt[1:] {
		if s.reason[q.Var()] == crefNil || !s.litRedundant(q, abstract) {
			kept = append(kept, q)
		}
	}
	s.cnt.MinimizedLits += int64(len(learnt) - len(kept))
	learnt = kept

	lbd := s.computeLBD(learnt)
	// Compute backtrack level: max level among learnt[1:].
	bt := int32(0)
	maxI := 1
	for i := 1; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] > bt {
			bt = s.level[learnt[i].Var()]
			maxI = i
		}
	}
	if len(learnt) > 1 {
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
	}
	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.learntBuf = learnt
	return learnt, bt, lbd
}

// litRedundant reports whether p is implied by the remaining learnt
// literals: every path through its implication-graph ancestry ends in a
// seen literal or a root-level assignment. Any new literal marked seen
// during the walk is recorded in toClear (and unwound on failure), so
// one analyze-wide clearing pass suffices.
func (s *SatSolver) litRedundant(p Lit, abstract uint32) bool {
	s.analyzeStack = append(s.analyzeStack[:0], p)
	top := len(s.toClear)
	for len(s.analyzeStack) > 0 {
		q := s.analyzeStack[len(s.analyzeStack)-1]
		qv := q.Var()
		s.analyzeStack = s.analyzeStack[:len(s.analyzeStack)-1]
		for _, l := range s.lits(s.reason[qv]) {
			v := l.Var()
			if v == qv || s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == crefNil || s.abstractLevel(v)&abstract == 0 {
				// A decision (or a level outside the clause's signature)
				// was reached: p is not redundant. Unwind the marks.
				for len(s.toClear) > top {
					s.seen[s.toClear[len(s.toClear)-1]] = false
					s.toClear = s.toClear[:len(s.toClear)-1]
				}
				return false
			}
			s.seen[v] = true
			s.toClear = append(s.toClear, v)
			s.analyzeStack = append(s.analyzeStack, l)
		}
	}
	return true
}

func (s *SatSolver) record(learnt []Lit, lbd int32) {
	s.cnt.Learnts++
	s.cnt.LearntLits += int64(len(learnt))
	s.cnt.GlueSum += int64(lbd)
	if lbd <= 2 {
		s.cnt.LowGlue++
	}
	switch len(learnt) {
	case 1:
		s.enqueue(learnt[0], crefNil)
	default:
		c := s.alloc(learnt, true)
		s.cdb[c].act = float32(s.claInc)
		s.cdb[c].lbd = lbd
		s.learnts = append(s.learnts, c)
		s.watchClause(c)
		s.enqueue(s.lits(c)[0], c)
	}
}

// reduceDB removes roughly half of the learnt clauses, keeping the ones
// most likely to prune future search: binary clauses, low-LBD ("glue")
// clauses, clauses currently locked as reasons, and — among the rest —
// the half with the best (lowest LBD, then highest activity) rank.
func (s *SatSolver) reduceDB() {
	if len(s.learnts) < s.reduceMin {
		return
	}
	sort.Slice(s.learnts, func(i, j int) bool {
		ci, cj := &s.cdb[s.learnts[i]], &s.cdb[s.learnts[j]]
		if ci.lbd != cj.lbd {
			return ci.lbd > cj.lbd // worst (highest glue) first
		}
		return ci.act < cj.act
	})
	limit := len(s.learnts) / 2
	removed := 0
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		h := &s.cdb[c]
		if removed < limit && h.n > 2 && h.lbd > 2 && !s.isReason(c) {
			h.deleted = true
			s.deadLits += int(h.n)
			removed++
		} else {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	// Deleted clauses are only marked: their headers and literals stay in
	// the arenas (and stale entries linger in watch lists). Once the dead
	// literals dominate, compact — long incremental sessions otherwise
	// accumulate every clause ever learnt.
	if s.deadLits*2 > len(s.larena) && len(s.larena) > s.compactMin {
		s.compact()
	}
}

// compact rewrites the clause database without the deleted clauses,
// sliding live literals down the arena and rebuilding the watch lists
// (which also drops stale watchers of deleted clauses). Reasons are
// remapped; reason clauses are never deleted, so every remap target is
// live. Only called from reduceDB — no cref may be held across it.
func (s *SatSolver) compact() {
	remap := make([]cref, len(s.cdb))
	nl, nc := int32(0), 0
	for i := range s.cdb {
		h := s.cdb[i]
		if h.deleted {
			remap[i] = crefNil
			continue
		}
		copy(s.larena[nl:], s.larena[h.off:h.off+h.n])
		h.off = nl
		nl += h.n
		remap[i] = cref(nc)
		s.cdb[nc] = h
		nc++
	}
	s.cdb = s.cdb[:nc]
	s.larena = s.larena[:nl]
	for i, c := range s.clauses {
		s.clauses[i] = remap[c]
	}
	for i, c := range s.learnts {
		s.learnts[i] = remap[c]
	}
	for v, r := range s.reason {
		if r != crefNil {
			s.reason[v] = remap[r]
		}
	}
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for i := range s.binWatches {
		s.binWatches[i] = s.binWatches[i][:0]
	}
	// Re-watching lits[0]/lits[1] preserves the two-watched-literal
	// invariant: propagate maintains exactly that pair as the watches.
	for _, c := range s.clauses {
		s.watchClause(c)
	}
	for _, c := range s.learnts {
		s.watchClause(c)
	}
	s.deadLits = 0
}

func (s *SatSolver) isReason(c cref) bool {
	v := s.larena[s.cdb[c].off].Var()
	return s.assign[v] != lUndef && s.reason[v] == c
}

// lubyRestartBase scales the Luby sequence into conflict budgets;
// reduceDBMin is the learnt-clause floor below which reduceDB is a
// no-op; defaultVarDecay is the VSIDS activity decay (0.95 classically).
const (
	lubyRestartBase = 100
	reduceDBMin     = 100
	compactDBMin    = 1 << 16
	defaultVarDecay = 0.95
)

// luby returns the i-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,… — the universally near-optimal
// restart schedule.
func luby(i int64) int64 {
	size, seq := int64(1), 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return 1 << uint(seq)
}

// Solve runs the CDCL search. assumptions, if any, are enqueued as
// level-1+ decisions first (used for incremental queries). Restarts
// rewind to the assumption prefix rather than to level 0: the
// assumption levels are forced anyway and re-propagating them is pure
// waste.
func (s *SatSolver) Solve(assumptions ...Lit) SatResult {
	if !s.ok {
		return SatUnsat
	}
	s.cancelUntil(0)
	s.cnt.AssumLevels += int64(len(assumptions))
	restartNum := int64(0)
	restartLimit := luby(restartNum) * s.restartBase
	conflictsAtStart := s.cnt.Conflicts
	conflictsAtRestart := s.cnt.Conflicts
	learntLimit := len(s.clauses)/3 + 100
	ticks := 0
	for {
		conf := s.propagate()
		if conf != crefNil {
			s.cnt.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return SatUnsat
			}
			learnt, bt, lbd := s.analyze(conf)
			s.cancelUntil(bt)
			s.record(learnt, lbd)
			s.varInc /= defaultVarDecay
			s.claInc /= 0.999
			continue
		}
		if s.MaxConflicts > 0 && s.cnt.Conflicts-conflictsAtStart > s.MaxConflicts {
			s.cancelUntil(0)
			return SatUnknown
		}
		// External cancellation: an atomic flag every iteration, the
		// clock only every few hundred (a time read per decision would be
		// measurable on propagation-bound instances).
		if s.Interrupt != nil && s.Interrupt.Load() {
			s.cancelUntil(0)
			return SatUnknown
		}
		if ticks++; ticks&255 == 0 && !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
			s.cancelUntil(0)
			return SatUnknown
		}
		if s.cnt.Conflicts-conflictsAtRestart > restartLimit {
			restartNum++
			s.cnt.Restarts++
			restartLimit = luby(restartNum) * s.restartBase
			conflictsAtRestart = s.cnt.Conflicts
			keep := s.decisionLevel()
			if keep > int32(len(assumptions)) {
				keep = int32(len(assumptions))
			}
			s.cancelUntil(keep)
			continue
		}
		if len(s.learnts) > learntLimit {
			learntLimit = learntLimit*11/10 + 10
			s.reduceDB()
		}
		// Re-apply assumptions under the current trail.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open an empty decision level so the
				// index keeps advancing.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				return SatUnsat
			default:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				s.enqueue(a, crefNil)
			}
			continue
		}
		// Decide.
		v := s.pickBranchVar()
		if v < 0 {
			s.captureModel()
			return SatSat
		}
		s.cnt.Decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.enqueue(MkLit(v, !s.polarity[v]), crefNil)
	}
}

func (s *SatSolver) pickBranchVar() int32 {
	if s.orderStale {
		s.orderStale = false
		s.order.rebuild(s.assign)
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			return v
		}
	}
}

// captureModel snapshots the satisfying assignment.
func (s *SatSolver) captureModel() {
	s.model = append(s.model[:0], s.assign...)
}

// ModelValue returns the assignment of variable v after a Sat answer.
// Unassigned variables read as false.
func (s *SatSolver) ModelValue(v int32) bool {
	return int(v) < len(s.model) && s.model[v] == lTrue
}

// varHeap is a max-heap on variable activity with lazy deletion. The
// position index is a dense slice (variables are small consecutive
// integers): heap maintenance runs on every propagate/backtrack cycle,
// and a map here dominated whole-verification profiles.
type varHeap struct {
	act   *[]float64
	items []int32
	pos   []int32 // pos[v] = index of v in items, -1 when absent
}

func (h *varHeap) less(a, b int32) bool { return (*h.act)[a] > (*h.act)[b] }

// rebuild reconstitutes the heap from every unassigned variable in one
// O(n) heapify — the counterpart of a bulk cancelUntil, which skips the
// per-variable pushes.
func (h *varHeap) rebuild(assign []lbool) {
	h.items = h.items[:0]
	for len(h.pos) < len(assign) {
		h.pos = append(h.pos, -1)
	}
	for v, a := range assign {
		if a == lUndef {
			h.pos[v] = int32(len(h.items))
			h.items = append(h.items, int32(v))
		} else {
			h.pos[v] = -1
		}
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *varHeap) push(v int32) {
	for int32(len(h.pos)) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.items = append(h.items, v)
	h.pos[v] = int32(len(h.items) - 1)
	h.up(len(h.items) - 1)
}

func (h *varHeap) pop() (int32, bool) {
	if len(h.items) == 0 {
		return -1, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.pos[h.items[0]] = 0
	h.items = h.items[:last]
	h.pos[top] = -1
	if len(h.items) > 0 {
		h.down(0)
	}
	return top, true
}

func (h *varHeap) update(v int32) {
	if int32(len(h.pos)) > v && h.pos[v] >= 0 {
		h.up(int(h.pos[v]))
	}
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		h.pos[h.items[i]] = int32(i)
		h.pos[h.items[p]] = int32(p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		h.pos[h.items[i]] = int32(i)
		h.pos[h.items[m]] = int32(m)
		i = m
	}
}
