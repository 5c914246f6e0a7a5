package smt

// This file implements the CNF preprocessing pass of SatELite (Eén &
// Biere) that earns its keep here: level-0 unit application and
// self-subsumption strengthening. Both preserve logical equivalence:
// Tseitin literals cached by the blaster stay sound and accumulated
// learnt clauses stay valid, so no structural cache needs invalidating.
//
// The pass runs between solves at decision level 0. It operates in
// detached mode: watch lists are ignored and rebuilt wholesale at the
// end (via compact), unit consequences are applied through the
// occurrence lists instead of propagate, and qhead rewinds to 0 so the
// next Solve re-derives the closure through the fresh watches.

// Preprocessing tunables. The occurrence caps follow MiniSat-simp's
// defaults closely; the clause floor keeps the pass away from instances
// too small to repay a database rewrite.
const (
	preMinClauses   = 512 // below this a pass cannot pay for itself
	preGrowthFactor = 4   // re-preprocess when the CNF grew this much
	subMaxClauseLen = 20  // longer clauses are not tried as strengtheners
	subMaxOcc       = 800 // skip backward scans over longer occurrence lists
	prePassLimit    = 3   // strengthening rounds
)

// NeedPreprocess reports whether the problem CNF has grown enough since
// the last preprocessing run (or since construction) for another pass.
func (s *SatSolver) NeedPreprocess() bool {
	n := len(s.clauses)
	return n >= preMinClauses && n >= s.preClauses*preGrowthFactor
}

// preprocessor is the transient state of one Preprocess call.
type preprocessor struct {
	s     *SatSolver
	occ   [][]cref // per literal: problem clauses registered at creation (may hold stale entries)
	sig   []uint64 // per cref: variable-based 64-bit clause signature
	inSub []bool   // per cref: queued for a strengthening scan
	subQ  []cref
	uhead int // trail prefix whose consequences are applied to the DB
}

// Preprocess simplifies the problem CNF by unit application and
// self-subsumption strengthening. It reports false when the formula is
// discovered unsatisfiable at the top level (the solver is then dead,
// like after a failed AddClause).
func (s *SatSolver) Preprocess() bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if conf := s.propagate(); conf != crefNil {
		s.ok = false
		return false
	}
	s.cnt.PreprocessRuns++
	p := &preprocessor{s: s}
	p.init()
	if p.applyUnits() {
		for pass := 0; pass < prePassLimit && s.ok; pass++ {
			changed := p.strengthenPass()
			if !s.ok || !p.applyUnits() || !changed {
				break
			}
		}
	}
	if s.ok {
		p.finish()
	}
	return s.ok
}

// init builds the occurrence lists and clause signatures, and queues
// every live problem clause for a strengthening scan.
func (p *preprocessor) init() {
	s := p.s
	p.occ = make([][]cref, 2*len(s.assign))
	p.sig = make([]uint64, len(s.cdb))
	p.inSub = make([]bool, len(s.cdb))
	for _, c := range s.clauses {
		if s.cdb[c].deleted {
			continue
		}
		var sig uint64
		for _, l := range s.lits(c) {
			sig |= 1 << (uint(l.Var()) & 63)
			p.occ[l] = append(p.occ[l], c)
		}
		p.sig[c] = sig
		p.inSub[c] = true
		p.subQ = append(p.subQ, c)
	}
}

// deleteClause marks a problem clause deleted (lazily: occurrence
// entries stay and are filtered by the deleted flag).
func (p *preprocessor) deleteClause(c cref) {
	h := &p.s.cdb[c]
	if h.deleted {
		return
	}
	h.deleted = true
	p.s.deadLits += int(h.n)
}

// findLit returns the index of l in clause c's literals, or -1.
func (p *preprocessor) findLit(c cref, l Lit) int {
	for i, x := range p.s.lits(c) {
		if x == l {
			return i
		}
	}
	return -1
}

// strengthen removes literal l from clause c in place (self-subsumption
// or a false literal under a level-0 unit). Returns false on top-level
// unsatisfiability.
func (p *preprocessor) strengthen(c cref, l Lit) bool {
	s := p.s
	h := &s.cdb[c]
	if h.deleted {
		return true
	}
	i := p.findLit(c, l)
	if i < 0 {
		return true // stale occurrence entry
	}
	lits := s.lits(c)
	lits[i] = lits[len(lits)-1]
	h.n--
	s.deadLits++
	s.cnt.LitsStrengthened++
	switch h.n {
	case 0:
		s.ok = false
		return false
	case 1:
		u := s.lits(c)[0]
		p.deleteClause(c) // the unit moves to the trail
		switch s.value(u) {
		case lTrue:
			return true
		case lFalse:
			s.ok = false
			return false
		}
		return s.enqueue(u, crefNil)
	}
	// Recompute the signature (it can only shrink) and requeue.
	var sig uint64
	for _, x := range s.lits(c) {
		sig |= 1 << (uint(x.Var()) & 63)
	}
	p.sig[c] = sig
	if !p.inSub[c] {
		p.inSub[c] = true
		p.subQ = append(p.subQ, c)
	}
	return true
}

// applyUnits applies every pending level-0 assignment to the problem
// clause database through the occurrence lists: clauses containing the
// true literal are deleted, clauses containing its negation are
// strengthened (possibly yielding further units, which extend the trail
// and keep the loop going). This is complete unit propagation over the
// problem clauses without touching watch lists.
func (p *preprocessor) applyUnits() bool {
	s := p.s
	for p.uhead < len(s.trail) {
		l := s.trail[p.uhead]
		p.uhead++
		for _, c := range p.occ[l] {
			if !s.cdb[c].deleted && p.findLit(c, l) >= 0 {
				p.deleteClause(c)
			}
		}
		for _, c := range p.occ[l.Flip()] {
			if !p.strengthen(c, l.Flip()) {
				return false
			}
		}
	}
	return true
}

// selfSubsumes checks whether every literal of c occurs in d, exactly
// one of them negated, and returns that negated literal l: resolving c
// and d on l yields d without l, so d may be strengthened by removing
// l. It returns -1 otherwise.
func (p *preprocessor) selfSubsumes(c, d cref) Lit {
	dl := p.s.lits(d)
	var flipped Lit = -1
	for _, lc := range p.s.lits(c) {
		found := false
		for _, ld := range dl {
			if ld == lc {
				found = true
				break
			}
			if ld == lc.Flip() {
				if flipped != -1 {
					return -1
				}
				flipped = ld
				found = true
				break
			}
		}
		if !found {
			return -1
		}
	}
	return flipped
}

// strengthenPass drains the strengthening queue: each queued clause is
// tried as a self-subsumer against the clauses sharing its rarest
// literal (in either polarity, so strengthening on that literal is not
// missed). Reports whether anything changed.
func (p *preprocessor) strengthenPass() bool {
	s := p.s
	changed := false
	for len(p.subQ) > 0 {
		c := p.subQ[len(p.subQ)-1]
		p.subQ = p.subQ[:len(p.subQ)-1]
		p.inSub[c] = false
		h := &s.cdb[c]
		if h.deleted || int(h.n) > subMaxClauseLen {
			continue
		}
		var best Lit = -1
		for _, l := range s.lits(c) {
			if best < 0 || len(p.occ[l])+len(p.occ[l.Flip()]) < len(p.occ[best])+len(p.occ[best.Flip()]) {
				best = l
			}
		}
		if best < 0 || len(p.occ[best])+len(p.occ[best.Flip()]) > subMaxOcc {
			continue
		}
		for pol := 0; pol < 2; pol++ {
			cand := p.occ[best]
			if pol == 1 {
				cand = p.occ[best.Flip()]
			}
			for _, d := range cand {
				if d == c || s.cdb[d].deleted || s.cdb[c].deleted {
					continue
				}
				if s.cdb[d].n < s.cdb[c].n || p.sig[c]&^p.sig[d] != 0 {
					continue
				}
				flipped := p.selfSubsumes(c, d)
				if flipped == -1 {
					continue
				}
				if !p.strengthen(d, flipped) {
					return changed
				}
				changed = true
			}
		}
	}
	return changed
}

// finish cleans the learnt database (deleting satisfied clauses and
// stripping false literals), rewrites the arenas without the deleted
// clauses, rebuilds the watch lists, and rewinds propagation so the
// next Solve re-derives the closure under the new database.
func (p *preprocessor) finish() {
	s := p.s
	for {
		if !p.applyUnits() {
			return
		}
		again := false
		for _, c := range s.learnts {
			h := &s.cdb[c]
			if h.deleted {
				continue
			}
			drop := false
			for _, l := range s.lits(c) {
				if s.value(l) == lTrue {
					drop = true
					break
				}
			}
			if drop {
				p.deleteClause(c)
				continue
			}
			lits := s.lits(c)
			for i := 0; i < len(lits); {
				if s.value(lits[i]) == lFalse {
					lits[i] = lits[len(lits)-1]
					lits = lits[:len(lits)-1]
					h.n--
					s.deadLits++
				} else {
					i++
				}
			}
			switch h.n {
			case 0:
				s.ok = false
				return
			case 1:
				u := s.lits(c)[0]
				p.deleteClause(c)
				if !s.enqueue(u, crefNil) {
					s.ok = false
					return
				}
				again = true
			}
		}
		if !again {
			break
		}
	}
	// Live learnt lists must drop deleted entries before compact.
	keptL := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.cdb[c].deleted {
			keptL = append(keptL, c)
		}
	}
	s.learnts = keptL
	keptC := s.clauses[:0]
	for _, c := range s.clauses {
		if !s.cdb[c].deleted {
			keptC = append(keptC, c)
		}
	}
	s.clauses = keptC
	// Every standing assignment is level 0; reasons are never consulted
	// there, and some may point at deleted clauses.
	for _, l := range s.trail {
		s.reason[l.Var()] = crefNil
	}
	s.compact()
	s.qhead = 0
	s.orderStale = true
	s.preClauses = len(s.clauses)
}
