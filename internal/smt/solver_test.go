package smt

import (
	"math/rand"
	"reflect"
	"testing"

	"vsd/internal/bv"
	"vsd/internal/expr"
)

func checkSat(t *testing.T, s *Solver, cons []*expr.Expr) *expr.Assignment {
	t.Helper()
	r, m := s.NewSession().Check(cons)
	if r != Sat {
		t.Fatalf("Check = %v, want sat (constraints: %v)", r, cons)
	}
	for _, c := range cons {
		if !expr.Eval(c, m).IsTrue() {
			t.Fatalf("model does not satisfy %s (model vars: %v)", c, m.Vars)
		}
	}
	return m
}

func checkUnsat(t *testing.T, s *Solver, cons []*expr.Expr) {
	t.Helper()
	if r, _ := s.NewSession().Check(cons); r != Unsat {
		t.Fatalf("Check = %v, want unsat (constraints: %v)", r, cons)
	}
}

// TestStatsAddCoversEveryField: Add must sum every counter, so a field
// added to Stats without an Add line fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one Stats
	rv := reflect.ValueOf(&one).Elem()
	for i := 0; i < rv.NumField(); i++ {
		rv.Field(i).SetInt(1)
	}
	sum := one
	sum.Add(one)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got := sv.Field(i).Int(); got != 2 {
			t.Errorf("Stats.Add: %s = %d, want 2", sv.Type().Field(i).Name, got)
		}
	}
}

func TestCheckTrivial(t *testing.T) {
	s := New(Options{})
	checkSat(t, s, nil)
	checkSat(t, s, []*expr.Expr{expr.True()})
	checkUnsat(t, s, []*expr.Expr{expr.False()})
}

func TestCheckSimpleArith(t *testing.T) {
	s := New(Options{})
	x := expr.Var("x", 8)
	// x + 1 == 0  ->  x == 255
	m := checkSat(t, s, []*expr.Expr{expr.Eq(expr.Add(x, expr.Const(8, 1)), expr.Const(8, 0))})
	if m.Vars["x"].U != 255 {
		t.Errorf("x = %v, want 255", m.Vars["x"])
	}
	// x < 5 && x > 9 is unsat.
	checkUnsat(t, s, []*expr.Expr{
		expr.Ult(x, expr.Const(8, 5)),
		expr.Ult(expr.Const(8, 9), x),
	})
}

func TestIntervalFastPathDecides(t *testing.T) {
	s := New(Options{})
	x := expr.Var("x", 32)
	// The paper's stitched constraint shape: (x < 10) && (x >= 10).
	checkUnsat(t, s, []*expr.Expr{
		expr.Ult(x, expr.Const(32, 10)),
		expr.Not(expr.Ult(x, expr.Const(32, 10))),
	})
	st := s.Stats()
	if st.IntervalDecided+st.FoldedDecided == 0 {
		t.Errorf("expected the cheap passes to decide, stats = %+v", st)
	}
	if st.SatCalls != 0 {
		t.Errorf("SAT core reached unnecessarily, stats = %+v", st)
	}
}

func TestIntervalsDisabledStillCorrect(t *testing.T) {
	s := New(Options{DisableIntervals: true})
	x := expr.Var("x", 16)
	checkUnsat(t, s, []*expr.Expr{
		expr.Ult(x, expr.Const(16, 5)),
		expr.Ult(expr.Const(16, 9), x),
	})
	if s.Stats().SatCalls == 0 {
		t.Error("expected SAT call with intervals disabled")
	}
}

func TestMultiplication(t *testing.T) {
	s := New(Options{})
	x := expr.Var("x", 16)
	y := expr.Var("y", 16)
	// x * y == 77, x > 1, y > 1: factorization 7 * 11.
	m := checkSat(t, s, []*expr.Expr{
		expr.Eq(expr.Mul(x, y), expr.Const(16, 77)),
		expr.Ult(expr.Const(16, 1), x),
		expr.Ult(expr.Const(16, 1), y),
		expr.Ult(x, expr.Const(16, 77)),
		expr.Ult(y, expr.Const(16, 77)),
	})
	got := m.Vars["x"].U * m.Vars["y"].U & 0xffff
	if got != 77 {
		t.Errorf("x*y = %d, want 77", got)
	}
}

func TestDivisionSemantics(t *testing.T) {
	s := New(Options{DisableIntervals: true})
	x := expr.Var("x", 8)
	// x / 0 == 255 must be valid for all x: its negation is unsat.
	checkUnsat(t, s, []*expr.Expr{
		expr.Ne(expr.UDiv(x, expr.Const(8, 0)), expr.Const(8, 255)),
	})
	// x / 3 == 5 -> x in [15,17].
	m := checkSat(t, s, []*expr.Expr{
		expr.Eq(expr.UDiv(x, expr.Const(8, 3)), expr.Const(8, 5)),
	})
	if v := m.Vars["x"].U; v < 15 || v > 17 {
		t.Errorf("x = %d, want in [15,17]", v)
	}
}

func TestShiftBySymbolicAmount(t *testing.T) {
	s := New(Options{})
	x := expr.Var("x", 8)
	k := expr.Var("k", 8)
	// (1 << k) == 16 forces k == 4.
	m := checkSat(t, s, []*expr.Expr{
		expr.Eq(expr.Shl(expr.Const(8, 1), k), expr.Const(8, 16)),
	})
	if m.Vars["k"].U != 4 {
		t.Errorf("k = %v, want 4", m.Vars["k"])
	}
	// Shifting any x by >= 8 yields 0.
	checkUnsat(t, s, []*expr.Expr{
		expr.Ule(expr.Const(8, 8), k),
		expr.Ne(expr.Shl(x, k), expr.Const(8, 0)),
	})
}

func TestSignedComparison(t *testing.T) {
	s := New(Options{})
	x := expr.Var("x", 8)
	// x <s 0 && x >u 200: satisfiable (e.g. 201 = -55).
	m := checkSat(t, s, []*expr.Expr{
		expr.Bin(expr.OpSlt, x, expr.Const(8, 0)),
		expr.Ult(expr.Const(8, 200), x),
	})
	if m.Vars["x"].Signed() >= 0 {
		t.Errorf("x = %v not negative", m.Vars["x"])
	}
}

func TestArrayConstraints(t *testing.T) {
	s := New(Options{})
	pkt := expr.BaseArray("pkt")
	b0 := expr.Select(pkt, expr.Const(32, 0))
	b1 := expr.Select(pkt, expr.Const(32, 1))
	// pkt[0] == 0x45 && pkt[1] != pkt[0]
	m := checkSat(t, s, []*expr.Expr{
		expr.Eq(b0, expr.Const(8, 0x45)),
		expr.Ne(b1, b0),
	})
	if len(m.Arrays["pkt"]) < 2 || m.Arrays["pkt"][0] != 0x45 {
		t.Fatalf("array model = %v", m.Arrays["pkt"])
	}
	if m.Arrays["pkt"][1] == 0x45 {
		t.Error("pkt[1] should differ from pkt[0]")
	}
}

func TestArrayFunctionalConsistency(t *testing.T) {
	s := New(Options{})
	pkt := expr.BaseArray("pkt")
	i := expr.Var("i", 32)
	j := expr.Var("j", 32)
	ri := expr.Select(pkt, i)
	rj := expr.Select(pkt, j)
	// i == j but pkt[i] != pkt[j] must be unsat (Ackermann consistency).
	checkUnsat(t, s, []*expr.Expr{
		expr.Eq(i, j),
		expr.Ne(ri, rj),
	})
	// i != j allows different bytes.
	m := checkSat(t, s, []*expr.Expr{
		expr.Ne(i, j),
		expr.Ne(ri, rj),
		expr.Ult(i, expr.Const(32, 64)),
		expr.Ult(j, expr.Const(32, 64)),
	})
	iv, jv := m.Vars["i"].Int(), m.Vars["j"].Int()
	if iv == jv {
		t.Errorf("model has i == j == %d", iv)
	}
}

func TestSymbolicStoreThenSelect(t *testing.T) {
	s := New(Options{})
	pkt := expr.BaseArray("pkt")
	k := expr.Var("k", 32)
	// Write 0x42 at symbolic k, then require reading 7 at index 3 while
	// k == 3: contradiction.
	a := expr.Store(pkt, k, expr.Const(8, 0x42))
	read := expr.Select(a, expr.Const(32, 3))
	checkUnsat(t, s, []*expr.Expr{
		expr.Eq(k, expr.Const(32, 3)),
		expr.Eq(read, expr.Const(8, 7)),
	})
	// Without pinning k the read can see the base array.
	checkSat(t, s, []*expr.Expr{expr.Eq(read, expr.Const(8, 7))})
}

func TestUnknownOnBudgetExhaustion(t *testing.T) {
	s := New(Options{MaxConflicts: 1, DisableIntervals: true})
	// A multiplication puzzle the SAT core cannot finish in one conflict:
	// x*y == product of two primes with nontrivial factors required. The
	// 16-bit bounds rule out wrap-around, so only the factorization
	// solves it (modulo 2^w an odd product has trivial solutions such as
	// y = -1, which a single descent can hit).
	x := expr.Var("x", 32)
	y := expr.Var("y", 32)
	cons := []*expr.Expr{
		expr.Eq(expr.Mul(x, y), expr.Const(32, 7919*6101)),
		expr.Ult(expr.Const(32, 1), x),
		expr.Ult(expr.Const(32, 1), y),
		expr.Ult(x, expr.Const(32, 1<<16)),
		expr.Ult(y, expr.Const(32, 1<<16)),
	}
	r, _ := s.NewSession().Check(cons)
	if r == Sat {
		// A lucky first decision could satisfy it; accept Sat but verify.
		t.Skip("budget test got lucky; acceptable")
	}
	if r != Unknown && r != Unsat {
		t.Fatalf("Check = %v", r)
	}
}

// TestRandomFormulasAgainstEnumeration cross-checks the full solver stack
// against brute-force evaluation of random formulas over two 4-bit
// variables (256 assignments).
func TestRandomFormulasAgainstEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ops := []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpUDiv, expr.OpURem,
		expr.OpAnd, expr.OpOr, expr.OpXor, expr.OpShl, expr.OpLShr, expr.OpAShr}
	cmps := []expr.Op{expr.OpEq, expr.OpNe, expr.OpUlt, expr.OpUle, expr.OpSlt, expr.OpSle}
	var gen func(depth int) *expr.Expr
	gen = func(depth int) *expr.Expr {
		if depth == 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return expr.Const(4, uint64(r.Intn(16)))
			case 1:
				return expr.Var("x", 4)
			default:
				return expr.Var("y", 4)
			}
		}
		return expr.Bin(ops[r.Intn(len(ops))], gen(depth-1), gen(depth-1))
	}
	for trial := 0; trial < 120; trial++ {
		cons := []*expr.Expr{}
		for n := 0; n < 1+r.Intn(3); n++ {
			cons = append(cons, expr.Bin(cmps[r.Intn(len(cmps))], gen(2), gen(2)))
		}
		want := false
		for xv := 0; xv < 16 && !want; xv++ {
			for yv := 0; yv < 16; yv++ {
				a := expr.NewAssignment()
				a.Vars["x"] = bv.New(4, uint64(xv))
				a.Vars["y"] = bv.New(4, uint64(yv))
				ok := true
				for _, c := range cons {
					if !expr.Eval(c, a).IsTrue() {
						ok = false
						break
					}
				}
				if ok {
					want = true
					break
				}
			}
		}
		for _, disable := range []bool{false, true} {
			s := New(Options{DisableIntervals: disable})
			got, m := s.NewSession().Check(cons)
			if (got == Sat) != want {
				t.Fatalf("trial %d (intervals off=%v): Check = %v, brute force sat=%v, cons=%v",
					trial, disable, got, want, cons)
			}
			if got == Sat {
				for _, c := range cons {
					if !expr.Eval(c, m).IsTrue() {
						t.Fatalf("trial %d: model fails %s", trial, c)
					}
				}
			}
		}
	}
}

func TestWidePacketFieldQuery(t *testing.T) {
	// A realistic dataplane query: the IPv4 destination (4 bytes, big
	// endian) must be 10.1.2.3 and TTL 16 bits... (8-bit) must be >= 2.
	s := New(Options{})
	pkt := expr.BaseArray("pkt")
	dst := expr.SelectWide(pkt, expr.Const(32, 30), 4)
	ttl := expr.Select(pkt, expr.Const(32, 22))
	m := checkSat(t, s, []*expr.Expr{
		expr.Eq(dst, expr.Const(32, 0x0a010203)),
		expr.Ule(expr.Const(8, 2), ttl),
	})
	p := m.Arrays["pkt"]
	if len(p) < 34 {
		t.Fatalf("packet model too short: %d bytes", len(p))
	}
	if p[30] != 0x0a || p[31] != 0x01 || p[32] != 0x02 || p[33] != 0x03 {
		t.Errorf("dst bytes = % x, want 0a 01 02 03", p[30:34])
	}
	if p[22] < 2 {
		t.Errorf("ttl byte = %d, want >= 2", p[22])
	}
}
