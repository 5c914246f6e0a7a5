package verify

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/packet"
)

// TestParallelMatchesSequential runs the same verifications with a
// single walker and with a pool of eight and requires identical
// verdicts, witness sets (by path), and schedule-independent counters.
func TestParallelMatchesSequential(t *testing.T) {
	configs := []struct {
		name string
		src  string
	}{
		{"fig2", "s :: InfiniteSource; s -> ToyE1 -> ToyE2 -> Discard;"},
		{"e2-alone", "s :: InfiniteSource; s -> ToyE2 -> Discard;"},
		{"unsafe-reader", "s :: InfiniteSource; s -> UnsafeReader(16) -> Discard;"},
		{"ip-router-prefix", `
			src :: InfiniteSource;
			src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
			chk[0] -> ttl :: DecIPTTL; chk[1] -> Discard;
			ttl[1] -> Discard;`},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			p1 := parsePipeline(t, c.src)
			seq := New(Options{MinLen: packet.MinFrame, MaxLen: 64, Parallelism: 1})
			repSeq, err := seq.CrashFreedom(p1)
			if err != nil {
				t.Fatal(err)
			}
			p2 := parsePipeline(t, c.src)
			par := New(Options{MinLen: packet.MinFrame, MaxLen: 64, Parallelism: 8})
			repPar, err := par.CrashFreedom(p2)
			if err != nil {
				t.Fatal(err)
			}
			if repSeq.Verified != repPar.Verified {
				t.Fatalf("verdict: sequential=%v parallel=%v", repSeq.Verified, repPar.Verified)
			}
			if len(repSeq.Witnesses) != len(repPar.Witnesses) {
				t.Fatalf("witnesses: sequential=%d parallel=%d",
					len(repSeq.Witnesses), len(repPar.Witnesses))
			}
			for i := range repSeq.Witnesses {
				if repSeq.Witnesses[i].Path != repPar.Witnesses[i].Path {
					t.Errorf("witness %d: path %q vs %q",
						i, repSeq.Witnesses[i].Path, repPar.Witnesses[i].Path)
				}
			}
			ss, sp := seq.Stats(), par.Stats()
			if ss.ComposedPaths != sp.ComposedPaths {
				t.Errorf("composed paths: sequential=%d parallel=%d", ss.ComposedPaths, sp.ComposedPaths)
			}
			if ss.ComposedInfeasible != sp.ComposedInfeasible {
				t.Errorf("infeasible: sequential=%d parallel=%d", ss.ComposedInfeasible, sp.ComposedInfeasible)
			}
			if ss.SegmentsTotal != sp.SegmentsTotal {
				t.Errorf("segments: sequential=%d parallel=%d", ss.SegmentsTotal, sp.SegmentsTotal)
			}
			// Instruction bound is a max over all paths: schedule-free.
			b1, err := seq.BoundedInstructions(parsePipeline(t, c.src))
			if err != nil {
				t.Fatal(err)
			}
			b2, err := par.BoundedInstructions(parsePipeline(t, c.src))
			if err != nil {
				t.Fatal(err)
			}
			if b1.MaxSteps != b2.MaxSteps {
				t.Errorf("bound: sequential=%d parallel=%d", b1.MaxSteps, b2.MaxSteps)
			}
		})
	}
}

// TestParallelBoundWitnessDeterministic: at Parallelism > 1 any walker
// may stitch the bound's attaining path, so the reported packet must not
// come from that walker's session. Fresh verifiers must agree on it byte
// for byte.
func TestParallelBoundWitnessDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 8; i++ {
		v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 4})
		rep, err := v.BoundedInstructions(parsePipeline(t, storeTestPipeline))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Witness.Packet) == 0 {
			t.Fatalf("run %d: no witness packet: %+v", i, rep.Witness)
		}
		if i == 0 {
			first = rep.Witness.Packet
		} else if !bytes.Equal(rep.Witness.Packet, first) {
			t.Fatalf("run %d: witness %x, run 0 had %x", i, rep.Witness.Packet, first)
		}
	}
}

// TestBoundWitnessChecksKeptModel: without the fresh re-solve (Batch's
// admission path) the walker's model is kept, and it must still be
// checked against the attaining path. With the re-solve, a fresh model
// replaces it and that solve is counted in Stats.
func TestBoundWitnessChecksKeptModel(t *testing.T) {
	p := parsePipeline(t, storeTestPipeline)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 2})
	var top *composed
	if err := v.walk(p, nil, func(end pathEnd) error {
		if end.disp != ir.Crashed && (top == nil || end.state.steps > top.steps) {
			top = end.state
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if top == nil {
		t.Fatal("no non-crashing path")
	}
	// The longest path passes Classifier(12/0800); the all-zero packet
	// does not.
	top.model = expr.NewAssignment()
	if _, err := v.boundWitness(p, top, false); err == nil || !strings.Contains(err.Error(), "violates path constraint") {
		t.Fatalf("corrupted walker model accepted: err=%v", err)
	}
	before := v.Stats().Solver.Queries
	w, err := v.boundWitness(p, top, true)
	if err != nil {
		t.Fatalf("fresh re-solve: %v", err)
	}
	if len(w.Packet) == 0 {
		t.Fatalf("fresh re-solve gave no packet: %+v", w)
	}
	if got := v.Stats().Solver.Queries; got <= before {
		t.Errorf("fresh re-solve not counted: solver queries %d -> %d", before, got)
	}
}

// TestParallelVerifierRace exercises the synchronized paths under -race:
// one Verifier fanning a parallel walk out while other goroutines hammer
// Stats() and Summarize() on the same instance.
func TestParallelVerifierRace(t *testing.T) {
	src := `
		src :: InfiniteSource;
		src -> Strip(14) -> chk :: CheckIPHeader(NOCHECKSUM);
		chk[0] -> ttl :: DecIPTTL; chk[1] -> Discard;
		ttl[1] -> Discard;`
	p := parsePipeline(t, src)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Parallelism: 8})
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Stats readers run for the whole verification.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = v.Stats()
				}
			}
		}()
	}
	// Concurrent summarizers on the same cache.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range p.Elements {
				if _, err := v.Summarize(e); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	rep, err := v.CrashFreedom(p)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("pipeline must verify; witnesses: %v", rep.Witnesses)
	}
	st := v.Stats()
	if st.ElementsSummarized == 0 || st.Solver.SessionsOpened == 0 {
		t.Errorf("stats not accumulated: %+v", st)
	}
}
