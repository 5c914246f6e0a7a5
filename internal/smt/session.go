package smt

import (
	"fmt"
	"time"

	"vsd/internal/expr"
)

// IncrementalSession is an incremental solving context: one persistent
// SAT instance into which constraint atoms are asserted once, guarded by
// activation literals, and queried under assumption sets. Conflict
// clauses learnt by one query accelerate the next — essential for
// symbolic execution and composition, which issue thousands of queries
// over monotonically growing constraint prefixes.
//
// Queries need NOT be supersets of each other: an atom asserted for one
// query is disabled in the next simply by omitting its activation
// literal from the assumption set, so no invalidation pass is required
// when the atom set shrinks or diverges. What does grow monotonically is
// the underlying CNF; sessions therefore recycle their SAT instance when
// the guarded-atom count exceeds sessionMaxGuards, which bounds memory
// at the cost of relearning.
//
// An IncrementalSession is not safe for concurrent use — each worker
// owns one (the owning Solver hands them out via NewSession, and the
// verifier pools them per walker goroutine). Cheap per-query passes
// (constant folding, the interval analysis, the owning Solver's verdict
// cache) still run first; the incremental core only sees queries those
// passes cannot decide.
type IncrementalSession struct {
	owner    *Solver
	bl       *blaster
	lastCnts blasterCounters
	// guards maps an asserted (select-free, rewritten) atom to its
	// activation literal.
	guards map[*expr.Expr]Lit
	// Session-global Ackermann state: every distinct select node seen so
	// far, its rewritten index, and its fresh variable name.
	selRepl map[*expr.Expr]*expr.Expr // select node -> fresh var
	selInfo []selectInfo
	selVars []string
	rwMemo  map[*expr.Expr]*expr.Expr
	// varsMemo caches the free-variable list of each queried atom: model
	// extraction runs per Sat verdict over the whole (mostly unchanged)
	// atom set, and re-walking the DAGs dominated profiles.
	varsMemo map[*expr.Expr][]*expr.Expr
	// lastSolve attributes the most recent Check (see LastSolve).
	lastSolve SolveInfo
}

// sessionMaxGuards bounds a session's guarded-atom count before its SAT
// instance is recycled (fresh CNF, learnt clauses dropped). Exploration
// along one path rarely needs more than a few thousand distinct atoms;
// the bound exists so a long-lived session cannot grow without limit.
const sessionMaxGuards = 1 << 14

// NewSession returns an incremental context backed by this solver's
// options, statistics, and verdict cache.
func (s *Solver) NewSession() *IncrementalSession {
	sess := &IncrementalSession{owner: s}
	sess.recycle()
	return sess
}

// recycle (re)initializes the SAT instance and every piece of state tied
// to it. Counted under SessionsOpened: a recycle opens a fresh
// underlying solver instance.
func (sess *IncrementalSession) recycle() {
	sess.owner.stats.sessions.Add(1)
	sess.bl = newBlaster()
	sess.lastCnts = blasterCounters{}
	sess.guards = map[*expr.Expr]Lit{}
	sess.selRepl = map[*expr.Expr]*expr.Expr{}
	sess.selInfo = sess.selInfo[:0]
	sess.selVars = sess.selVars[:0]
	sess.rwMemo = map[*expr.Expr]*expr.Expr{}
	sess.varsMemo = map[*expr.Expr][]*expr.Expr{}
}

// Reset recycles the session's SAT instance and every piece of state
// tied to it. It exists for callers that contained a panic mid-query
// (DESIGN.md §9): a search that unwound partway through asserting atoms
// may have left the instance with a guard literal whose defining clause
// set is incomplete, and a later solve over that instance could return
// a wrong Unsat. After Reset the session is equivalent to a freshly
// opened one (learnt clauses are dropped — relearning is the price of
// not trusting poisoned state).
func (sess *IncrementalSession) Reset() { sess.recycle() }

// rewriteSelects rewrites an expression replacing every select node by
// its session variable, registering new selects (and their pairwise
// functional-consistency axioms) as they appear.
func (sess *IncrementalSession) rewriteSelects(e *expr.Expr) *expr.Expr {
	if r, ok := sess.rwMemo[e]; ok {
		return r
	}
	var r *expr.Expr
	if v, ok := sess.selRepl[e]; ok {
		r = v
	} else {
		switch e.Kind {
		case expr.KConst, expr.KVar:
			r = e
		case expr.KSelect:
			// New select: allocate its variable, rewrite its index, and
			// assert consistency with every earlier select of the same
			// base array. The axioms are unconditionally true, so they
			// are added unguarded.
			name := fmt.Sprintf("§s%d", len(sess.selVars))
			v := expr.Var(name, 8)
			sess.selRepl[e] = v
			idx := sess.rewriteSelects(e.B)
			for i, prev := range sess.selInfo {
				if prev.sel.Arr.BaseName() != e.Arr.BaseName() {
					continue
				}
				ax := expr.Implies(expr.Eq(idx, prev.idx), expr.Eq(v, expr.Var(sess.selVars[i], 8)))
				if !ax.IsTrue() {
					sess.bl.assertTrue(ax)
				}
			}
			sess.selInfo = append(sess.selInfo, selectInfo{sel: e, idx: idx})
			sess.selVars = append(sess.selVars, name)
			r = v
		case expr.KBin:
			r = expr.Bin(e.Op, sess.rewriteSelects(e.A), sess.rewriteSelects(e.B))
		case expr.KNot:
			r = expr.Not(sess.rewriteSelects(e.A))
		case expr.KNeg:
			r = expr.Neg(sess.rewriteSelects(e.A))
		case expr.KIte:
			r = expr.Ite(sess.rewriteSelects(e.Cond), sess.rewriteSelects(e.A), sess.rewriteSelects(e.B))
		case expr.KZExt:
			r = expr.ZExt(sess.rewriteSelects(e.A), e.Width())
		case expr.KSExt:
			r = expr.SExt(sess.rewriteSelects(e.A), e.Width())
		case expr.KTrunc:
			r = expr.Trunc(sess.rewriteSelects(e.A), e.Width())
		case expr.KExtract:
			r = expr.Extract(sess.rewriteSelects(e.A), e.Lo, e.Width())
		default:
			panic("smt: unexpected node in session rewriting")
		}
	}
	sess.rwMemo[e] = r
	return r
}

// guardFor asserts the atom (guarded) if new and returns its activation
// literal.
func (sess *IncrementalSession) guardFor(atom *expr.Expr) Lit {
	if g, ok := sess.guards[atom]; ok {
		return g
	}
	rw := sess.rewriteSelects(atom)
	g := MkLit(sess.bl.sat.NewVar(), false)
	lit := sess.bl.blast(rw)[0]
	sess.bl.sat.AddClause(g.Flip(), lit)
	sess.guards[atom] = g
	return g
}

// varsOf returns the free variables of a queried atom, memoized for the
// session's lifetime.
func (sess *IncrementalSession) varsOf(a *expr.Expr) []*expr.Expr {
	if vs, ok := sess.varsMemo[a]; ok {
		return vs
	}
	vs := expr.Vars(a, nil)
	sess.varsMemo[a] = vs
	return vs
}

// Check decides whether the conjunction of the given 1-bit expressions
// is satisfiable. On Sat it returns a model assigning every free
// variable and the bytes of every base array mentioned by the
// constraints; Unknown means a budget, deadline or interrupt stopped the
// search and is never a verdict.
func (sess *IncrementalSession) Check(constraints []*expr.Expr) (Result, *expr.Assignment) {
	s := sess.owner
	start := time.Now()
	pq, res, m, done := s.preSolve(constraints)
	if done {
		sess.lastSolve = SolveInfo{Result: res, Duration: time.Since(start)}
		return res, m
	}
	if len(sess.guards)+len(pq.atoms) > sessionMaxGuards {
		sess.recycle()
	}
	s.stats.satCalls.Add(1)
	s.stats.clausesReused.Add(int64(sess.bl.sat.NumLearnts()))
	assumptions := make([]Lit, len(pq.atoms))
	for i, a := range pq.atoms {
		assumptions[i] = sess.guardFor(a)
	}
	verdict := s.satSolve(sess.bl.sat, assumptions...)
	prev := sess.lastCnts
	sess.lastCnts = s.foldBlasterCounters(sess.bl, sess.lastCnts)
	cur := sess.lastCnts
	sess.lastSolve = SolveInfo{
		SATCore:      true,
		Duration:     time.Since(start),
		Conflicts:    cur.sat.Conflicts - prev.sat.Conflicts,
		Decisions:    cur.sat.Decisions - prev.sat.Decisions,
		Propagations: cur.sat.Propagations - prev.sat.Propagations,
		Learnts:      cur.sat.Learnts - prev.sat.Learnts,
		CNFVars:      cur.vars - prev.vars,
		CNFClauses:   cur.sat.ClausesAdded - prev.sat.ClausesAdded,
	}
	switch verdict {
	case SatUnsat:
		sess.lastSolve.Result = Unsat
		s.cachePut(pq.key, pq.atoms, Unsat, nil)
		return Unsat, nil
	case SatUnknown:
		sess.lastSolve.Result = Unknown
		return Unknown, nil
	}
	sess.lastSolve.Result = Sat
	asn := sess.extractModel(pq.atoms)
	s.cachePut(pq.key, pq.atoms, Sat, asn)
	return Sat, asn
}

// extractModel reads back values for the variables of the queried atoms
// and array bytes for every select the session has seen. Including all
// session selects (not just the queried ones) is harmless: extra bytes
// only make the witness more concrete.
func (sess *IncrementalSession) extractModel(atoms []*expr.Expr) *expr.Assignment {
	asn := expr.NewAssignment()
	for _, a := range atoms {
		for _, v := range sess.varsOf(a) {
			if _, ok := asn.Vars[v.Name]; !ok {
				asn.Vars[v.Name] = sess.bl.modelVar(v.Name, v.Width())
			}
		}
	}
	// Select variables referenced by the queried atoms' rewrites are
	// found transitively; simply materialize every session select whose
	// guard context makes it meaningful. Unconstrained ones read as 0,
	// which is a valid completion.
	const maxModelIndex = 1 << 20
	tmp := expr.NewAssignment()
	for i, info := range sess.selInfo {
		name := info.sel.Arr.BaseName()
		// The index may mention select variables; resolve them through
		// the blaster's model too.
		for _, v := range sess.varsOf(info.idx) {
			tmp.Vars[v.Name] = sess.bl.modelVar(v.Name, v.Width())
		}
		idx := expr.Eval(info.idx, tmp).Int()
		if idx >= maxModelIndex {
			continue
		}
		val := byte(sess.bl.modelVar(sess.selVars[i], 8).Int())
		content := asn.Arrays[name]
		for uint64(len(content)) <= idx {
			content = append(content, 0)
		}
		content[idx] = val
		asn.Arrays[name] = content
	}
	return asn
}

// flattenAtoms splits conjunctions and folds constants. The second
// result is Sat when everything folded away, Unsat when some atom is
// false, and Unknown otherwise.
func flattenAtoms(constraints []*expr.Expr) ([]*expr.Expr, Result) {
	var atoms []*expr.Expr
	var flatten func(e *expr.Expr)
	flatten = func(e *expr.Expr) {
		if e.Kind == expr.KBin && e.Op == expr.OpAnd && e.Width() == 1 {
			flatten(e.A)
			flatten(e.B)
			return
		}
		atoms = append(atoms, e)
	}
	for _, c := range constraints {
		if c.Width() != 1 {
			panic(fmt.Sprintf("smt: non-boolean constraint %s", c))
		}
		flatten(c)
	}
	out := atoms[:0]
	for _, a := range atoms {
		if a.IsTrue() {
			continue
		}
		if a.IsFalse() {
			return nil, Unsat
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, Sat
	}
	return out, Unknown
}

func dedupAtoms(atoms []*expr.Expr) []*expr.Expr {
	out := atoms[:0]
	for i, a := range atoms {
		if i == 0 || atoms[i-1] != a {
			out = append(out, a)
		}
	}
	return out
}
