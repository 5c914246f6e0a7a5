package smt

// Robustness tests (DESIGN.md §9): the fault-injection hook, the
// watchdog interrupt, and the conflict and wall-clock budgets. The
// contract under test is uniform — a failed or cancelled search may
// only ever degrade to Unknown, never to a fabricated verdict and never
// to a downed process.

import (
	"sync/atomic"
	"testing"
	"time"

	"vsd/internal/expr"
)

// hardQuery returns constraints that reach the SAT core (the interval
// pre-pass cannot decide multiplication).
func hardQuery() []*expr.Expr {
	x := expr.Var("x", 16)
	y := expr.Var("y", 16)
	return []*expr.Expr{
		expr.Eq(expr.Mul(x, y), expr.Const(16, 0x2a3)),
		expr.Ult(expr.Const(16, 1), x),
		expr.Ult(expr.Const(16, 1), y),
	}
}

func TestFaultHookForcesUnknown(t *testing.T) {
	for _, fault := range []SolveFault{ForceUnknown, ForceTimeout} {
		s := New(Options{FaultHook: func() SolveFault { return fault }})
		r, m := s.NewSession().Check(hardQuery())
		if r != Unknown || m != nil {
			t.Fatalf("fault %v: Check = %v (model %v), want Unknown", fault, r, m)
		}
		st := s.Stats()
		if st.InjectedFaults == 0 || st.Unknowns == 0 {
			t.Fatalf("fault %v: counters not bumped: %+v", fault, st)
		}
	}
}

func TestFaultHookPanicPropagates(t *testing.T) {
	// The smt layer itself does NOT contain an injected panic: that is
	// the verify workers' job (containment there is what keeps a daemon
	// alive). Here the panic must actually fire.
	s := New(Options{FaultHook: func() SolveFault { return ForcePanic }})
	defer func() {
		if recover() == nil {
			t.Fatal("ForcePanic did not panic")
		}
	}()
	s.NewSession().Check(hardQuery())
}

func TestFaultHookOneShotThenClean(t *testing.T) {
	// A transient fault: first search forced Unknown, retry decides.
	// This is the queue's retry ladder in miniature.
	var fired atomic.Bool
	s := New(Options{FaultHook: func() SolveFault {
		if fired.CompareAndSwap(false, true) {
			return ForceUnknown
		}
		return NoFault
	}})
	if r, _ := s.NewSession().Check(hardQuery()); r != Unknown {
		t.Fatalf("first Check = %v, want Unknown", r)
	}
	r, m := s.NewSession().Check(hardQuery())
	if r != Sat || m == nil {
		t.Fatalf("retry Check = %v, want Sat with model", r)
	}
	for _, c := range hardQuery() {
		if !expr.Eval(c, m).IsTrue() {
			t.Fatalf("retry model violates %s", c)
		}
	}
}

func TestInterruptCancelsSearches(t *testing.T) {
	var interrupt atomic.Bool
	s := New(Options{Interrupt: &interrupt})
	interrupt.Store(true)
	if r, _ := s.NewSession().Check(hardQuery()); r != Unknown {
		t.Fatalf("interrupted Check = %v, want Unknown", r)
	}
	if st := s.Stats(); st.Interrupted == 0 {
		t.Fatalf("Interrupted counter not bumped: %+v", st)
	}
	// Clearing the flag restores service — the watchdog's Resume path.
	interrupt.Store(false)
	if r, m := s.NewSession().Check(hardQuery()); r != Sat || m == nil {
		t.Fatalf("post-resume Check = %v, want Sat", r)
	}
}

func TestInterruptCancelsIncrementalSessions(t *testing.T) {
	var interrupt atomic.Bool
	s := New(Options{Interrupt: &interrupt})
	sess := s.NewSession()
	q := hardQuery()
	if r, _ := sess.Check(q); r != Sat {
		t.Fatalf("clean session Check = %v, want Sat", r)
	}
	interrupt.Store(true)
	// A structurally different query (the verdict cache must miss).
	x := expr.Var("x", 16)
	q2 := []*expr.Expr{expr.Eq(expr.Mul(x, x), expr.Const(16, 0x39))}
	if r, _ := sess.Check(q2); r != Unknown {
		t.Fatalf("interrupted session Check = %v, want Unknown", r)
	}
}

// php encodes the pigeonhole principle PHP(p, p-1) — p pigeons into p-1
// holes, unsatisfiable and exponentially hard for resolution — as the
// budget tests' reliably conflict-heavy instance.
func php(s *SatSolver, pigeons int) {
	holes := pigeons - 1
	vars := make([][]Lit, pigeons)
	for i := range vars {
		vars[i] = make([]Lit, holes)
		for j := range vars[i] {
			vars[i][j] = MkLit(s.NewVar(), false)
		}
	}
	for i := 0; i < pigeons; i++ {
		s.AddClause(vars[i]...) // each pigeon sits somewhere
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(vars[i][j].Flip(), vars[k][j].Flip())
			}
		}
	}
}

// TestSolveConflictBudgetUnknown asserts the budget contract: a search
// cut off by MaxConflicts reports SatUnknown — never a verdict — and
// the same instance solves to SatUnsat once the budget is lifted.
func TestSolveConflictBudgetUnknown(t *testing.T) {
	s := NewSatSolver()
	php(s, 7)
	s.MaxConflicts = 5
	if got := s.Solve(); got != SatUnknown {
		t.Fatalf("budgeted solve = %v, want SatUnknown", got)
	}
	s.MaxConflicts = 0
	if got := s.Solve(); got != SatUnsat {
		t.Fatalf("unbounded solve = %v, want SatUnsat", got)
	}
}

// TestSolveDeadlineUnknown asserts the wall-clock budget: an expired
// Deadline yields SatUnknown without fabricating a verdict.
func TestSolveDeadlineUnknown(t *testing.T) {
	s := NewSatSolver()
	php(s, 9)
	s.Deadline = time.Now().Add(-time.Second)
	if got := s.Solve(); got != SatUnknown {
		t.Fatalf("expired-deadline solve = %v, want SatUnknown", got)
	}
}

// TestSessionBudgetUnknown exercises the budget through an incremental
// session: a conflict-capped Check on a hard factoring formula returns
// Unknown with no model, and Stats counts the unresolved search.
func TestSessionBudgetUnknown(t *testing.T) {
	s := New(Options{MaxConflicts: 2, DisableIntervals: true})
	sess := s.NewSession()
	// Factoring, as in TestUnknownOnBudgetExhaustion: the 16-bit bounds
	// rule out the wrap-around solutions a single descent can hit.
	x := expr.Var("x", 32)
	y := expr.Var("y", 32)
	res, m := sess.Check([]*expr.Expr{
		expr.Eq(expr.Mul(x, y), expr.Const(32, 7919*6101)),
		expr.Ult(expr.Const(32, 1), x),
		expr.Ult(expr.Const(32, 1), y),
		expr.Ult(x, expr.Const(32, 1<<16)),
		expr.Ult(y, expr.Const(32, 1<<16)),
	})
	if res == Sat {
		t.Skip("budget test got lucky; acceptable")
	}
	if res != Unknown {
		t.Fatalf("budgeted session Check = %v, want Unknown", res)
	}
	if m != nil {
		t.Fatal("Unknown must carry no model")
	}
	if s.Stats().Unknowns == 0 {
		t.Fatal("Stats().Unknowns not incremented")
	}
}
