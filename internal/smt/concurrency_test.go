package smt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vsd/internal/expr"
)

// TestSolverConcurrentCheck hammers one Solver from many goroutines,
// each on its own session (run under -race): queries share the verdict
// cache and statistics, and every goroutine must read verdicts
// consistent with a sequential reference run.
func TestSolverConcurrentCheck(t *testing.T) {
	const goroutines = 8
	const queriesPer = 60
	pkt := expr.BaseArray("cpkt")
	mkQuery := func(seed int) []*expr.Expr {
		r := rand.New(rand.NewSource(int64(seed)))
		x := expr.Var(fmt.Sprintf("cx%d", seed%7), 8)
		b := expr.Select(pkt, expr.Const(32, uint64(r.Intn(4))))
		return []*expr.Expr{
			expr.Ult(x, expr.Const(8, uint64(1+r.Intn(255)))),
			expr.Eq(expr.Add(x, b), expr.Const(8, uint64(r.Intn(256)))),
		}
	}
	// Sequential reference.
	ref := New(Options{}).NewSession()
	want := make([]Result, goroutines*queriesPer)
	for i := range want {
		want[i], _ = ref.Check(mkQuery(i % 97))
	}
	solver := New(Options{})
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := solver.NewSession()
			for q := 0; q < queriesPer; q++ {
				i := g*queriesPer + q
				got, m := sess.Check(mkQuery(i % 97))
				if got != want[i] {
					errs <- fmt.Sprintf("query %d: got %v want %v", i, got, want[i])
					return
				}
				if got == Sat {
					for _, c := range mkQuery(i % 97) {
						if !expr.Eval(c, m).IsTrue() {
							errs <- fmt.Sprintf("query %d: model violates %s", i, c)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := solver.Stats(); st.Queries != goroutines*queriesPer {
		t.Errorf("queries = %d, want %d", st.Queries, goroutines*queriesPer)
	}
}

// TestIncrementalSessionQueryLogEquivalence replays a recorded,
// stitching-shaped query log — growing prefixes, branch atoms, and
// non-superset jumps back to shorter prefixes — through an
// IncrementalSession and through a fresh solver and session per query.
// Verdicts must match query by query, and every Sat model must
// satisfy its query (model equivalence up to the solution set).
func TestIncrementalSessionQueryLogEquivalence(t *testing.T) {
	pkt := expr.BaseArray("qlpkt")
	x := expr.Var("qlx", 16)
	var log [][]*expr.Expr
	var prefix []*expr.Expr
	for i := 0; i < 30; i++ {
		b := expr.Select(pkt, expr.Const(32, uint64(i%6)))
		prefix = append(prefix, expr.Ule(expr.ZExt(b, 16), expr.Add(x, expr.Const(16, uint64(i)))))
		// The growing-prefix query with a per-step branch atom.
		branch := expr.Eq(
			expr.Add(expr.ZExt(b, 16), x),
			expr.Const(16, uint64(37*i%1024)),
		)
		log = append(log, append(append([]*expr.Expr{}, prefix...), branch))
		// Every third step, jump to a non-superset: a short slice of the
		// prefix plus a contradictory-looking pair that exercises guard
		// deactivation (atoms from the longer query must not leak in).
		if i%3 == 2 {
			short := append([]*expr.Expr{}, prefix[:1+i/3]...)
			short = append(short,
				expr.Ult(x, expr.Const(16, 40)),
				expr.Ult(expr.Const(16, uint64(20+i)), x),
			)
			log = append(log, short)
		}
	}
	solver := New(Options{})
	sess := solver.NewSession()
	for qi, q := range log {
		rs, ms := sess.Check(q)
		ro, _ := New(Options{}).NewSession().Check(q) // fresh solver: no cache crosstalk
		if rs != ro {
			t.Fatalf("query %d: session=%v fresh=%v", qi, rs, ro)
		}
		if rs == Sat {
			for _, c := range q {
				if !expr.Eval(c, ms).IsTrue() {
					t.Fatalf("query %d: session model violates %s", qi, c)
				}
			}
		}
	}
	st := solver.Stats()
	if st.SatCalls == 0 {
		t.Error("expected SAT calls on the incremental path")
	}
	if st.SessionsOpened == 0 {
		t.Error("expected a session to be counted")
	}
}

// TestSessionRecycleKeepsVerdicts forces the guard-count recycle by
// issuing many distinct single-atom queries and checks the session stays
// correct across the internal SAT-instance swap.
func TestSessionRecycleKeepsVerdicts(t *testing.T) {
	// Intervals off so every query exercises the (recycled) SAT core.
	solver := New(Options{DisableIntervals: true})
	sess := solver.NewSession()
	x := expr.Var("rcx", 32)
	// A mix the session must keep deciding correctly; the recycle bound
	// is large, so rather than crossing it organically we call recycle
	// directly mid-stream to prove the swap is verdict-preserving.
	for i := 0; i < 50; i++ {
		if i == 25 {
			sess.recycle()
		}
		lo := uint64(i * 10)
		r, m := sess.Check([]*expr.Expr{
			expr.Ule(expr.Const(32, lo), x),
			expr.Ult(x, expr.Const(32, lo+5)),
		})
		if r != Sat {
			t.Fatalf("i=%d: %v", i, r)
		}
		if got := m.Vars["rcx"].U; got < lo || got >= lo+5 {
			t.Fatalf("i=%d: model %d outside [%d,%d)", i, got, lo, lo+5)
		}
		r, _ = sess.Check([]*expr.Expr{
			expr.Ult(x, expr.Const(32, lo)),
			expr.Ule(expr.Const(32, lo+5), x),
		})
		if r != Unsat {
			t.Fatalf("i=%d: contradiction not detected", i)
		}
	}
	if n := solver.Stats().SessionsOpened; n != 2 {
		t.Errorf("sessions opened = %d, want 2 (initial + recycle)", n)
	}
}
