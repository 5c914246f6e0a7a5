package smt

import (
	"math/rand"
	"testing"

	"vsd/internal/expr"
)

func TestSessionBasic(t *testing.T) {
	s := New(Options{})
	sess := s.NewSession()
	x := expr.Var("sx", 8)
	r, m := sess.Check([]*expr.Expr{expr.Eq(expr.Add(x, expr.Const(8, 1)), expr.Const(8, 0))})
	if r != Sat || m.Vars["sx"].U != 255 {
		t.Fatalf("r=%v m=%v", r, m)
	}
	// A contradictory follow-up on the same session.
	r, _ = sess.Check([]*expr.Expr{
		expr.Ult(x, expr.Const(8, 5)),
		expr.Ult(expr.Const(8, 9), x),
	})
	if r != Unsat {
		t.Fatalf("r=%v, want unsat", r)
	}
	// And a satisfiable one again: the session must stay usable.
	r, m = sess.Check([]*expr.Expr{expr.Ult(x, expr.Const(8, 5))})
	if r != Sat || m.Vars["sx"].U >= 5 {
		t.Fatalf("r=%v m=%v", r, m)
	}
}

// TestSessionClauseAdditionAfterSat is the regression test for the
// stale-trail bug: clauses asserted after a Sat answer (whose search
// assignments are still on the trail) must not be dropped as
// "already satisfied".
func TestSessionClauseAdditionAfterSat(t *testing.T) {
	s := New(Options{DisableIntervals: true})
	sess := s.NewSession()
	x := expr.Var("stale", 8)
	// First query leaves x assigned in the SAT core (say x = v).
	r, m := sess.Check([]*expr.Expr{expr.Ult(x, expr.Const(8, 200))})
	if r != Sat {
		t.Fatal(r)
	}
	got := m.Vars["stale"].U
	// Second query asserts x == got+1; if the new clause were simplified
	// against the stale assignment x=got, it could be mishandled.
	want := (got + 1) % 200
	r, m2 := sess.Check([]*expr.Expr{
		expr.Ult(x, expr.Const(8, 200)),
		expr.Eq(x, expr.Const(8, want)),
	})
	if r != Sat {
		t.Fatalf("second query unsat")
	}
	if m2.Vars["stale"].U != want {
		t.Fatalf("x = %d, want %d", m2.Vars["stale"].U, want)
	}
	// Third: force the complement of everything seen so far.
	r, _ = sess.Check([]*expr.Expr{
		expr.Eq(x, expr.Const(8, want)),
		expr.Eq(x, expr.Const(8, (want+7)%256)),
	})
	if r != Unsat {
		t.Fatalf("contradiction not detected: %v", r)
	}
}

// TestSessionAgainstStatelessSolver cross-checks one long-lived session
// against a fresh solver and session per query (no learnt clauses, no
// verdict cache carried over) on random query sequences sharing
// variables and packet-array selects.
func TestSessionAgainstStatelessSolver(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pkt := expr.BaseArray("spkt")
	vars := []*expr.Expr{expr.Var("sa", 8), expr.Var("sb", 8)}
	leaf := func() *expr.Expr {
		switch r.Intn(4) {
		case 0:
			return expr.Const(8, uint64(r.Intn(256)))
		case 1:
			return expr.Select(pkt, expr.Const(32, uint64(r.Intn(4))))
		default:
			return vars[r.Intn(len(vars))]
		}
	}
	atom := func() *expr.Expr {
		ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpUlt, expr.OpUle}
		a := leaf()
		if r.Intn(2) == 0 {
			a = expr.Add(a, leaf())
		}
		return expr.Bin(ops[r.Intn(len(ops))], a, leaf())
	}
	solver := New(Options{})
	sess := solver.NewSession()
	for q := 0; q < 120; q++ {
		n := 1 + r.Intn(4)
		cons := make([]*expr.Expr, n)
		for i := range cons {
			cons[i] = atom()
		}
		rs, ms := sess.Check(cons)
		rp, _ := New(Options{}).NewSession().Check(cons)
		if rs != rp {
			t.Fatalf("query %d: session=%v stateless=%v cons=%v", q, rs, rp, cons)
		}
		if rs == Sat {
			for _, c := range cons {
				if !expr.Eval(c, ms).IsTrue() {
					t.Fatalf("query %d: session model violates %s", q, c)
				}
			}
		}
	}
}
