package verify

import (
	"strings"

	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/smt"
	"vsd/internal/symbex"
)

// This file implements the paper's data-structure verification
// refinement. Step 1 models every private-state read as an
// unconstrained symbolic value ("a read may return either a value that
// was previously written in the data structure or a default value").
// That over-approximation can tag crash paths that no execution
// realizes: the crash needs a "bad" value in the store, but nothing can
// ever write one. The refinement is the paper's second phase: "go back
// and check whether any input to the element may have caused any of
// these bad values to be written to the data structure in the first
// place."

// statefulRealizable decides whether a crashing composed path is
// realizable given what can actually be written to private state. It
// returns true (keep the witness) unless every source combination —
// store defaults and all reachable writes — fails to satisfy the path
// constraint.
func (v *Verifier) statefulRealizable(p *click.Pipeline, st *composed) (bool, error) {
	// Which state-read variables does the path constraint mention?
	var used []symbex.StateAccess
	mentioned := map[string]bool{}
	for _, c := range st.conds {
		for _, vr := range expr.Vars(c, nil) {
			mentioned[vr.Name] = true
		}
	}
	for _, rd := range st.reads {
		if mentioned[rd.Var.Name] {
			used = append(used, rd)
		}
	}
	if len(used) == 0 {
		return true, nil // crash does not depend on state
	}
	if len(used) > maxRefinedReads {
		// Too many reads; keep suspect (over-approximate) and report the
		// truncation. Runs under visitMu, so the plain counter is safe,
		// but Stats() snapshots under v.mu — take it for the increment.
		v.mu.Lock()
		v.stats.RefinementTruncated++
		v.mu.Unlock()
		return true, nil
	}
	// Candidate value sources per read: the store default, any write of
	// the same store in any segment of the owning element (from a
	// previous packet), and any earlier write on this same path (same
	// packet).
	sources := make([][]valueSource, len(used))
	for i, rd := range used {
		s, err := v.valueSources(p, st, rd)
		if err != nil {
			return false, err
		}
		sources[i] = s
	}
	// Try every combination; the crash is realizable iff some
	// combination keeps the path satisfiable.
	return v.anyCombinationFeasible(st, used, sources, 0, expr.NewSubst(), nil)
}

// valueSource is one way a state read could have obtained its value.
type valueSource struct {
	val *expr.Expr // value expression (inputs renamed to a fresh scope)
	// pre are additional constraints that must hold for this source
	// (the writing segment's path constraint and key equality).
	pre []*expr.Expr
}

// valueSources enumerates what the read rd could have returned.
func (v *Verifier) valueSources(p *click.Pipeline, st *composed, rd symbex.StateAccess) ([]valueSource, error) {
	// Store names on the path are instance-qualified: "inst.store".
	dot := strings.Index(rd.Store, ".")
	instName, storeName := rd.Store[:dot], rd.Store[dot+1:]
	var elem *click.Instance
	for _, e := range p.Elements {
		if e.Name() == instName {
			elem = e
			break
		}
	}
	decl, _ := elem.Program().StateDeclByName(storeName)
	// Source 1: the default value (key never written).
	out := []valueSource{{val: expr.Const(decl.ValW, decl.Default)}}
	// Source 2: earlier writes on this same path (same packet).
	for _, wr := range st.writes {
		if wr.Store != rd.Store {
			continue
		}
		out = append(out, valueSource{
			val: wr.Val,
			pre: []*expr.Expr{expr.Eq(wr.Key, rd.Key)},
		})
	}
	// Source 3: writes by any segment of the owning element, performed
	// while processing an earlier packet. That packet is independent of
	// the current one, so every input variable of the writing segment is
	// renamed into a fresh "w.<n>." scope.
	segs, err := v.Summarize(elem)
	if err != nil {
		return nil, err
	}
	scope := 0
	for _, seg := range segs {
		for _, wr := range seg.Writes {
			if wr.Store != storeName {
				continue
			}
			sub := renameScope(seg, scope)
			scope++
			var pre []*expr.Expr
			for _, c := range seg.Cond {
				pre = append(pre, sub.Apply(c))
			}
			out = append(out, valueSource{val: sub.Apply(wr.Val), pre: pre})
		}
	}
	return out, nil
}

// renameScope builds a substitution renaming a segment's input variables
// (packet array, length, metadata, state reads) into a fresh scope so
// constraints about a previous packet do not collide with the current
// one.
func renameScope(seg *symbex.Segment, scope int) *expr.Subst {
	prefix := "w" + itoa(scope) + "."
	sub := expr.NewSubst()
	sub.BindArr(symbex.PktArrayName, expr.BaseArray(prefix+symbex.PktArrayName))
	sub.BindVar(symbex.PktLenVar, expr.Var(prefix+symbex.PktLenVar, 32))
	seen := map[string]bool{}
	for _, c := range seg.Cond {
		for _, vr := range expr.Vars(c, nil) {
			if seen[vr.Name] || vr.Name == symbex.PktLenVar {
				continue
			}
			seen[vr.Name] = true
			sub.BindVar(vr.Name, expr.Var(prefix+vr.Name, vr.Width()))
		}
	}
	for _, wr := range seg.Writes {
		for _, vr := range expr.Vars(wr.Val, nil) {
			if !seen[vr.Name] && vr.Name != symbex.PktLenVar {
				seen[vr.Name] = true
				sub.BindVar(vr.Name, expr.Var(prefix+vr.Name, vr.Width()))
			}
		}
	}
	return sub
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// anyCombinationFeasible substitutes one source per read and asks the
// solver whether the crash path survives.
func (v *Verifier) anyCombinationFeasible(st *composed, used []symbex.StateAccess,
	sources [][]valueSource, idx int, sub *expr.Subst, pre []*expr.Expr) (bool, error) {
	if idx == len(used) {
		cons := append([]*expr.Expr{}, v.Pre()...)
		cons = append(cons, pre...)
		for _, c := range st.conds {
			cons = append(cons, sub.Apply(c))
		}
		v.solverQueries.Add(1)
		sp, started := v.tel.beginSolve(v.rootSession, "refine", "")
		r, _ := v.rootSession.Check(cons)
		v.tel.recordSolve(v.rootSession, "refine", "stateful-refine", started, sp)
		return r != smt.Unsat, nil
	}
	for _, src := range sources[idx] {
		s2 := expr.NewSubst()
		for k, val := range sub.Vars {
			s2.BindVar(k, val)
		}
		for k, a := range sub.Arrs {
			s2.BindArr(k, a)
		}
		s2.BindVar(used[idx].Var.Name, src.val)
		ok, err := v.anyCombinationFeasible(st, used, sources, idx+1, s2, append(pre, src.pre...))
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
