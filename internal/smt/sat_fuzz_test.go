package smt

import (
	"math/rand"
	"testing"
)

// This file fuzzes the CDCL core against brute-force enumeration on
// random CNFs over up to 16 variables. Widths 1..5 produce unit chains
// (binary watch lists) and quick top-level conflicts; the hard-search
// test generates 3-CNF at the satisfiability phase transition with the
// restart and clause-deletion thresholds lowered, so recursive
// minimization, LBD tracking, Luby restarts, reduceDB, and arena
// compaction all run on instances small enough to cross-check by
// enumeration. Repeated solves with assumption sets stress the
// incremental path over a shared instance.

// randCNF returns a random CNF over nv variables.
func randCNF(r *rand.Rand, nv int) [][]Lit {
	nc := 1 + r.Intn(8*nv)
	cnf := make([][]Lit, 0, nc)
	for i := 0; i < nc; i++ {
		width := 1 + r.Intn(5)
		cl := make([]Lit, width)
		for j := range cl {
			cl[j] = MkLit(int32(r.Intn(nv)), r.Intn(2) == 1)
		}
		cnf = append(cnf, cl)
	}
	return cnf
}

// bruteForceSatUnder checks satisfiability of cnf under forced literal
// assignments (assumptions) by enumeration.
func bruteForceSatUnder(nv int, cnf [][]Lit, assumptions []Lit) bool {
	for m := 0; m < 1<<nv; m++ {
		ok := true
		for _, a := range assumptions {
			val := m>>uint(a.Var())&1 == 1
			if a.Neg() {
				val = !val
			}
			if !val {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func checkModel(t *testing.T, s *SatSolver, cnf [][]Lit, trial int) {
	t.Helper()
	for _, cl := range cnf {
		sat := false
		for _, l := range cl {
			val := s.ModelValue(l.Var())
			if l.Neg() {
				val = !val
			}
			if val {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("trial %d: model does not satisfy clause %v", trial, cl)
		}
	}
}

// TestSatFuzzOneShot cross-checks single solves on random CNFs over up
// to 16 variables against enumeration.
func TestSatFuzzOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		nv := 2 + r.Intn(15) // 2..16 vars
		cnf := randCNF(r, nv)
		s := NewSatSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		early := false
		for _, cl := range cnf {
			// AddClause owns nothing (arena copy), but simplifies the
			// argument slice in place: pass a copy to keep cnf intact for
			// the brute-force cross-check.
			if !s.AddClause(append([]Lit{}, cl...)...) {
				early = true
				break
			}
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		if early {
			if want {
				t.Fatalf("trial %d: AddClause declared unsat but formula is sat: %v", trial, cnf)
			}
			continue
		}
		got := s.Solve()
		if (got == SatSat) != want {
			t.Fatalf("trial %d: Solve = %v, brute force = %v, cnf = %v", trial, got, want, cnf)
		}
		if got == SatSat {
			checkModel(t, s, cnf, trial)
		}
	}
}

// TestSatFuzzAssumptions cross-checks repeated assumption solves over a
// single shared instance — the incremental-session usage pattern — with
// random assumption sets per round, including rounds that add clauses
// between solves (exercising the trail-preserving AddClause attach).
func TestSatFuzzAssumptions(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 120; trial++ {
		nv := 3 + r.Intn(14) // 3..16 vars
		s := NewSatSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		var cnf [][]Lit
		addBatch := func(n int) bool {
			for i := 0; i < n; i++ {
				width := 1 + r.Intn(5)
				cl := make([]Lit, width)
				for j := range cl {
					cl[j] = MkLit(int32(r.Intn(nv)), r.Intn(2) == 1)
				}
				cnf = append(cnf, cl)
				if !s.AddClause(append([]Lit{}, cl...)...) {
					return false
				}
			}
			return true
		}
		dead := !addBatch(1 + r.Intn(4*nv))
		for round := 0; round < 6; round++ {
			// Random assumptions over distinct variables.
			var assumptions []Lit
			for v := 0; v < nv; v++ {
				if r.Intn(4) == 0 {
					assumptions = append(assumptions, MkLit(int32(v), r.Intn(2) == 1))
				}
			}
			want := bruteForceSatUnder(nv, cnf, assumptions)
			if dead {
				// The instance hit a top-level conflict during AddClause;
				// everything afterwards must answer unsat.
				if want {
					t.Fatalf("trial %d round %d: dead instance but formula+assumptions sat", trial, round)
				}
				if got := s.Solve(assumptions...); got != SatUnsat {
					t.Fatalf("trial %d round %d: dead instance Solve = %v", trial, round, got)
				}
				continue
			}
			got := s.Solve(assumptions...)
			if (got == SatSat) != want {
				t.Fatalf("trial %d round %d: Solve = %v, brute force = %v, cnf = %v assumptions = %v",
					trial, round, got, want, cnf, assumptions)
			}
			if got == SatSat {
				checkModel(t, s, cnf, trial)
				for _, a := range assumptions {
					val := s.ModelValue(a.Var())
					if a.Neg() {
						val = !val
					}
					if !val {
						t.Fatalf("trial %d round %d: model violates assumption %v", trial, round, a)
					}
				}
			}
			// Grow the instance mid-session half the time: clauses attach
			// against whatever trail the previous solve left standing.
			if r.Intn(2) == 0 {
				if !addBatch(1 + r.Intn(nv)) {
					dead = true
				}
			}
		}
	}
}

// TestSatFuzzHardSearch generates random 3-CNF at the phase-transition
// clause ratio (~4.3), where search is genuinely hard, with restart and
// reduceDB thresholds lowered so the deep CDCL machinery (Luby
// restarts, clause deletion, arena compaction, ccmin on long conflict
// chains) runs on enumerable instances. Aggregate counters assert the
// machinery actually engaged.
func TestSatFuzzHardSearch(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	var conflicts, restarts, minimized int64
	for trial := 0; trial < 150; trial++ {
		nv := 10 + r.Intn(7) // 10..16 vars
		nc := int(4.3 * float64(nv))
		cnf := make([][]Lit, 0, nc)
		for i := 0; i < nc; i++ {
			cl := make([]Lit, 3)
			perm := r.Perm(nv)
			for j := range cl {
				cl[j] = MkLit(int32(perm[j]), r.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
		}
		s := NewSatSolver()
		s.restartBase = 4 // force frequent Luby restarts
		s.reduceMin = 8   // force clause-database reduction
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		early := false
		for _, cl := range cnf {
			if !s.AddClause(append([]Lit{}, cl...)...) {
				early = true
				break
			}
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		if early {
			if want {
				t.Fatalf("trial %d: AddClause declared unsat but formula is sat", trial)
			}
			continue
		}
		// Two assumption rounds after the plain solve keep the instance
		// shared across searches.
		if got := s.Solve(); (got == SatSat) != want {
			t.Fatalf("trial %d: Solve = %v, brute force = %v, cnf = %v", trial, got, want, cnf)
		}
		for round := 0; round < 2; round++ {
			var assumptions []Lit
			for v := 0; v < nv; v++ {
				if r.Intn(5) == 0 {
					assumptions = append(assumptions, MkLit(int32(v), r.Intn(2) == 1))
				}
			}
			want := bruteForceSatUnder(nv, cnf, assumptions)
			got := s.Solve(assumptions...)
			if s.ok && (got == SatSat) != want {
				t.Fatalf("trial %d round %d: Solve = %v, brute force = %v", trial, round, got, want)
			}
			if got == SatSat {
				checkModel(t, s, cnf, trial)
			}
		}
		c := s.Counters()
		conflicts += c.Conflicts
		restarts += c.Restarts
		minimized += c.MinimizedLits
	}
	t.Logf("aggregate: %d conflicts, %d restarts, %d minimized literals", conflicts, restarts, minimized)
	if conflicts < 500 {
		t.Errorf("phase-transition instances produced only %d conflicts; search machinery not exercised", conflicts)
	}
	if restarts == 0 {
		t.Error("no restarts fired despite lowered restartBase")
	}
	if minimized == 0 {
		t.Error("learnt-clause minimization removed no literals")
	}
}

// TestSatCompaction drives one instance through enough learning and
// reduction cycles that the arena compacts, then re-checks the verdict
// and model validity on the compacted database.
func TestSatCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	s := NewSatSolver()
	s.restartBase = 4
	s.reduceMin = 8
	s.compactMin = 64 // compact as soon as dead literals dominate
	nv := 16
	for i := 0; i < nv; i++ {
		s.NewVar()
	}
	var cnf [][]Lit
	maxArena := 0
	for batch := 0; batch < 60 && s.ok; batch++ {
		for i := 0; i < 8; i++ {
			cl := make([]Lit, 3)
			perm := r.Perm(nv)
			for j := range cl {
				cl[j] = MkLit(int32(perm[j]), r.Intn(2) == 1)
			}
			cnf = append(cnf, cl)
			if !s.AddClause(append([]Lit{}, cl...)...) {
				break
			}
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		got := s.Solve()
		if s.ok && (got == SatSat) != want {
			t.Fatalf("batch %d: Solve = %v, brute force = %v", batch, got, want)
		}
		if !s.ok && want {
			t.Fatalf("batch %d: instance died but formula is sat", batch)
		}
		if got == SatSat {
			checkModel(t, s, cnf, batch)
		}
		if len(s.larena) > maxArena {
			maxArena = len(s.larena)
		}
	}
	// Compaction must have run (the arena shrank below its high-water
	// mark at least once) and left no deleted clause behind.
	if len(s.larena) >= maxArena && s.deadLits > 0 {
		t.Errorf("arena never compacted: len=%d high-water=%d deadLits=%d", len(s.larena), maxArena, s.deadLits)
	}
	for _, c := range append(append([]cref{}, s.clauses...), s.learnts...) {
		if s.cdb[c].deleted {
			t.Fatal("deleted clause left in live lists after compaction")
		}
	}
}

// TestSatFuzzDifferentialPreprocess is the preprocessing half of the
// differential oracle: every random instance is solved plain and with a
// Preprocess pass (unit application + self-subsumption strengthening)
// in front, asserting identical verdicts against each other and against
// enumeration, and that the preprocessed solver's model still satisfies
// the ORIGINAL clauses.
func TestSatFuzzDifferentialPreprocess(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 400; trial++ {
		nv := 2 + r.Intn(15)
		cnf := randCNF(r, nv)
		plain, pre := NewSatSolver(), NewSatSolver()
		for i := 0; i < nv; i++ {
			plain.NewVar()
			pre.NewVar()
		}
		deadPlain, deadPre := false, false
		for _, cl := range cnf {
			if !plain.AddClause(append([]Lit{}, cl...)...) {
				deadPlain = true
			}
			if !pre.AddClause(append([]Lit{}, cl...)...) {
				deadPre = true
			}
		}
		if deadPlain != deadPre {
			t.Fatalf("trial %d: AddClause divergence plain=%v pre=%v", trial, deadPlain, deadPre)
		}
		want := bruteForceSatUnder(nv, cnf, nil)
		if deadPlain {
			if want {
				t.Fatalf("trial %d: AddClause declared unsat but formula is sat", trial)
			}
			continue
		}
		preOK := pre.Preprocess()
		if !preOK {
			if want {
				t.Fatalf("trial %d: Preprocess declared unsat but formula is sat: %v", trial, cnf)
			}
			if got := pre.Solve(); got != SatUnsat {
				t.Fatalf("trial %d: dead preprocessed instance Solve = %v", trial, got)
			}
			continue
		}
		gotPlain := plain.Solve()
		gotPre := pre.Solve()
		if gotPlain != gotPre {
			t.Fatalf("trial %d: verdict divergence plain=%v pre=%v cnf=%v", trial, gotPlain, gotPre, cnf)
		}
		if (gotPre == SatSat) != want {
			t.Fatalf("trial %d: preprocessed Solve = %v, brute force = %v, cnf = %v", trial, gotPre, want, cnf)
		}
		if gotPre == SatSat {
			checkModel(t, pre, cnf, trial) // strengthened CNF vs the original clauses
		}
	}
}

// TestSatFuzzPreprocessIncremental drives the preprocessed solver the
// way sessions do: repeated assumption solves, clause additions over old
// and freshly created variables between solves, and mid-stream
// re-preprocessing. Verdicts and models are cross-checked by
// enumeration each round.
func TestSatFuzzPreprocessIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 150; trial++ {
		nv := 6 + r.Intn(7) // 6..12 initial vars
		s := NewSatSolver()
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		var cnf [][]Lit
		dead := false
		addOver := func(pool []int32, n int) {
			for i := 0; i < n; i++ {
				width := 1 + r.Intn(4)
				cl := make([]Lit, width)
				for j := range cl {
					cl[j] = MkLit(pool[r.Intn(len(pool))], r.Intn(2) == 1)
				}
				cnf = append(cnf, cl)
				if !s.AddClause(append([]Lit{}, cl...)...) {
					dead = true
				}
			}
		}
		all := make([]int32, nv)
		for i := range all {
			all[i] = int32(i)
		}
		addOver(all, 2+r.Intn(3*nv))
		if !dead && !s.Preprocess() {
			dead = true
		}
		for round := 0; round < 5; round++ {
			if r.Intn(2) == 0 && len(s.assign) < 16 {
				all = append(all, s.NewVar())
			}
			if !dead {
				addOver(all, 1+r.Intn(4))
			}
			if !dead && r.Intn(3) == 0 && !s.Preprocess() {
				dead = true
			}
			var assumptions []Lit
			for _, v := range all {
				if r.Intn(4) == 0 {
					assumptions = append(assumptions, MkLit(v, r.Intn(2) == 1))
				}
			}
			want := bruteForceSatUnder(len(s.assign), cnf, assumptions)
			if dead {
				if want {
					t.Fatalf("trial %d round %d: dead but formula+assumptions sat", trial, round)
				}
				if got := s.Solve(assumptions...); got != SatUnsat {
					t.Fatalf("trial %d round %d: dead instance Solve = %v", trial, round, got)
				}
				continue
			}
			got := s.Solve(assumptions...)
			if (got == SatSat) != want {
				t.Fatalf("trial %d round %d: Solve = %v, brute force = %v, cnf = %v assumptions = %v",
					trial, round, got, want, cnf, assumptions)
			}
			if got == SatSat {
				checkModel(t, s, cnf, trial)
				for _, a := range assumptions {
					val := s.ModelValue(a.Var())
					if a.Neg() {
						val = !val
					}
					if !val {
						t.Fatalf("trial %d round %d: model violates assumption %v", trial, round, a)
					}
				}
			}
		}
	}
}
