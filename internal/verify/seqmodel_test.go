package verify

import (
	"sort"
	"strings"
	"testing"

	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
	"vsd/internal/symbex"
)

// The sequence-model tests below pin the semantics of the symbex
// sequence primitives (SeqState, ThreadState, ScopeSubst) on
// one-element pipelines built from hand-written IR, driven through the
// verifier's own sequence entry points.

// buildCounter is the paper's overflow counter: read, assert below max,
// write incremented.
func buildCounter() *ir.Program {
	b := ir.NewBuilder("Counter", 1, 1)
	b.DeclareState(ir.StateDecl{Name: "count", KeyW: 8, ValW: 32})
	key := b.ConstU(8, 0)
	n := b.StateRead("count", key)
	b.Assert(b.BinC(ir.Ult, n, 0xffffffff), "overflow")
	b.StateWrite("count", key, b.BinC(ir.Add, n, 1))
	b.Emit(0)
	return b.MustBuild()
}

// seqShapes returns the disposition sequence of every feasible
// sequence of steps packets from boot state, crash-terminated ones
// included, as sorted "emitted,crashed"-style strings.
func seqShapes(t *testing.T, p *click.Pipeline, steps int) []string {
	t.Helper()
	var shapes []string
	spec := SeqSpec{Name: "shapes", Steps: steps, AllowCrash: true,
		Post: func(si *SeqInfo) *expr.Expr {
			d := make([]string, si.Steps())
			for i := range d {
				d[i] = si.Disposition(i).String()
			}
			shapes = append(shapes, strings.Join(d, ","))
			return nil
		}}
	if _, err := seqVerifier(t).VerifySeq(p, spec); err != nil {
		t.Fatal(err)
	}
	sort.Strings(shapes)
	return shapes
}

// From boot state the counter cannot overflow in any short sequence:
// state threading resolves each read to the concrete running count, so
// the crash path is infeasible at every step.
func TestSeqCounterDefaultInitCannotCrash(t *testing.T) {
	p := oneElementPipeline(t, "ctr", buildCounter())
	rep, err := seqVerifier(t).SeqCrashBounded(p, 3, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refuted || rep.Sequences != 1 {
		t.Fatalf("refuted=%v sequences=%d, want exactly the emit,emit,emit sequence", rep.Refuted, rep.Sequences)
	}
	if got := seqShapes(t, p, 3); strings.Join(got, " ") != "emitted,emitted,emitted" {
		t.Fatalf("shapes %v, want only emitted,emitted,emitted", got)
	}
}

// From an arbitrary state (the induction hypothesis) the overflow is
// reachable after a non-crashing step, which needs the threaded write
// of step 0 to flow into step 1's read: the seeded count must be
// exactly one below the overflow.
func TestSeqCounterSymbolicInitReachesOverflow(t *testing.T) {
	p := oneElementPipeline(t, "ctr", buildCounter())
	rep, err := seqVerifier(t).SeqCrashFreedom(p, SeqOptions{MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refuted || !rep.CTI || rep.Witness == nil {
		t.Fatalf("report %+v, want a counterexample to induction only", rep)
	}
	w := rep.Witness
	if len(w.Dispositions) != 2 || w.Dispositions[0] != ir.Emitted || w.Dispositions[1] != ir.Crashed {
		t.Fatalf("CTI dispositions %v, want [emitted crashed]", w.Dispositions)
	}
	if got := w.InitState["ctr"]["count"][0]; got != 0xfffffffe {
		t.Fatalf("seeded count %#x, want 0xfffffffe (step 0's write must reach step 1's read)", got)
	}
	if err := ReplaySeq(p, w); err != nil {
		t.Fatalf("dataplane replay diverged from the witness: %v", err)
	}
}

// A read after a write on the same packet must observe the written
// value: the access-order Seq numbers carry the interleaving that the
// separate Reads/Writes slices lose. The assert holds from boot state
// and, by 1-induction, from any state.
func TestSeqReadAfterWriteSamePacket(t *testing.T) {
	b := ir.NewBuilder("WriteThenRead", 1, 1)
	b.DeclareState(ir.StateDecl{Name: "s", KeyW: 8, ValW: 32})
	key := b.ConstU(8, 0)
	b.StateWrite("s", key, b.ConstU(32, 7))
	v := b.StateRead("s", key)
	b.Assert(b.BinC(ir.Eq, v, 7), "read sees own write")
	b.Emit(0)
	p := oneElementPipeline(t, "rw", b.MustBuild())

	rep, err := seqVerifier(t).VerifySeq(p, SeqSpec{Name: "no-crash", Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || rep.Sequences != 1 {
		t.Fatalf("verified=%v sequences=%d, want the single non-crashing path", rep.Verified, rep.Sequences)
	}
	ind, err := seqVerifier(t).SeqCrashFreedom(p, SeqOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ind.Proved || ind.K != 1 {
		t.Fatalf("induction %+v, want proved at k=1", ind)
	}
}

// Symbolic initial state must be functional: two steps reading the same
// key (from different packets) see the same unknown value. The element
// asserts the read is zero, so an (emit, crash) sequence from an
// arbitrary state needs the two keys to differ — forcing them equal
// must be unsatisfiable.
func TestSeqInitConsistencyAxioms(t *testing.T) {
	b := ir.NewBuilder("KeyedReader", 1, 1)
	b.DeclareState(ir.StateDecl{Name: "s", KeyW: 8, ValW: 32})
	key := b.LoadPktC(0, 1)
	val := b.StateRead("s", key)
	b.Assert(b.BinC(ir.Eq, val, 0), "zero")
	b.Emit(0)
	p := oneElementPipeline(t, "kr", b.MustBuild())

	v := seqVerifier(t)
	ends, err := v.prepareSeq(p)
	if err != nil {
		t.Fatal(err)
	}
	var emit, crash *seqEnd
	for i := range ends {
		switch ends[i].end.disp {
		case ir.Emitted:
			emit = &ends[i]
		case ir.Crashed:
			crash = &ends[i]
		}
	}
	if emit == nil || crash == nil {
		t.Fatalf("terminal paths lack an emitting or a crashing one: %d paths", len(ends))
	}
	ctx := &seqCtx{v: v, p: p, sess: v.getSession(), budget: DefaultSeqMaxSequences}
	defer v.putSession(ctx.sess)
	first, err := ctx.extend(newSeqRoot(p, symbex.InitSymbolic), emit)
	if err != nil || first == nil {
		t.Fatalf("emitting first step infeasible (err %v)", err)
	}
	mixed, err := ctx.extend(first, crash)
	if err != nil || mixed == nil {
		t.Fatalf("emit,crash not feasible from an arbitrary state (err %v); it is with distinct keys", err)
	}
	sameKey := expr.Eq(
		expr.Select(expr.BaseArray(symbex.SeqScope(0)+symbex.PktArrayName), expr.Const(32, 0)),
		expr.Select(expr.BaseArray(symbex.SeqScope(1)+symbex.PktArrayName), expr.Const(32, 0)),
	)
	cons := append(append(append([]*expr.Expr{}, mixed.conds...), mixed.store.Conds()...), sameKey)
	if r, _ := smt.New(smt.Options{}).NewSession().Check(cons); r != smt.Unsat {
		t.Fatalf("same-key emit,crash sequence is %v, want Unsat (consistency axiom missing?)", r)
	}

	// The counterexample to induction found through the public entry
	// point therefore reads two different keys.
	rep, err := seqVerifier(t).SeqCrashFreedom(p, SeqOptions{MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CTI || rep.Witness == nil || len(rep.Witness.Packets) != 2 {
		t.Fatalf("report %+v, want a 2-packet counterexample to induction", rep)
	}
	if w := rep.Witness; w.Packets[0][0] == w.Packets[1][0] {
		t.Fatalf("CTI reads key %#x at both steps; the axioms forbid that", w.Packets[0][0])
	}
}

// Writes to capacity-bounded stores may be dropped by a full table; the
// symbolic model covers that with a free landed-guard, so a read-back
// assert can fail even from boot state — while the same program over an
// unbounded store cannot.
func TestSeqCapacityGuardOverApproximates(t *testing.T) {
	crashes := func(capacity int) bool {
		b := ir.NewBuilder("CapWriter", 1, 1)
		b.DeclareState(ir.StateDecl{Name: "s", KeyW: 8, ValW: 32, Capacity: capacity})
		key := b.LoadPktC(0, 1)
		b.StateWrite("s", key, b.ConstU(32, 1))
		v := b.StateRead("s", key)
		b.Assert(b.BinC(ir.Eq, v, 1), "write landed")
		b.Emit(0)
		rep, err := seqVerifier(t).SeqCrashBounded(oneElementPipeline(t, "cw", b.MustBuild()), 1, SeqOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Refuted
	}
	if crashes(0) {
		t.Error("unbounded store: read-back assert refuted, want proof")
	}
	if !crashes(1) {
		t.Error("capacity-1 store: dropped-write case not covered by the model")
	}
}

// Sequence scoping must rename every per-packet input so steps cannot
// alias. In a pipeline, metadata enters zeroed (as on the runtime), so
// the per-packet inputs are the packet bytes and the packet length; the
// bytes are exercised by TestSeqInitConsistencyAxioms, the length here.
func TestSeqScopesInputsPerStep(t *testing.T) {
	b := ir.NewBuilder("LenGate", 1, 1)
	b.Assert(b.BinC(ir.Ult, b.PktLen(), 30), "short packet")
	b.Emit(0)
	p := oneElementPipeline(t, "lg", b.MustBuild())

	// emit,crash requires len_0 < 30 and len_1 >= 30: only satisfiable
	// when the length input is per-step.
	shapes := seqShapes(t, p, 2)
	for _, s := range shapes {
		if s == "emitted,crashed" {
			return
		}
	}
	t.Fatalf("shapes %v lack emitted,crashed: packet lengths are aliased across steps", shapes)
}
