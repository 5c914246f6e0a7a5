package verify

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"vsd/internal/click"
	"vsd/internal/expr"
	"vsd/internal/ir"
	"vsd/internal/smt"
	"vsd/internal/symbex"
)

// Witness is a concrete input demonstrating a property violation (or,
// for the instruction bound, attaining the maximum): the "example packet
// sequences" the paper requires a verifier to produce.
type Witness struct {
	Packet []byte
	// Output is the concrete packet the pipeline produces for Packet.
	// It is set by functional-spec violations (the properties that relate
	// input to output; DESIGN.md §6) and nil for the other properties.
	Output []byte
	Path   string // element-level path, for the report
	Detail string
}

// errUnresolved marks an obligation the solver could neither prove nor
// refute within its conflict/deadline budget. Property drivers convert
// it into an Unresolved count — never into a verdict.
var errUnresolved = errors.New("verify: obligation unresolved within solver budget")

// errInterrupted marks work cancelled by a watchdog Interrupt; it is an
// errUnresolved, so every degradation path treats it like budget
// exhaustion.
var errInterrupted = fmt.Errorf("%w: cancelled by watchdog interrupt", errUnresolved)

// CrashReport is the outcome of the crash-freedom property.
type CrashReport struct {
	// Verified is true when no packet can crash the pipeline.
	Verified bool
	// Witnesses lists feasible crashing inputs (empty when Verified).
	Witnesses []Witness
	// StatefulAssumed lists crash paths that are only realizable if a
	// "bad value" lives in private state and were discharged by the
	// data-structure refinement (see stateful.go).
	Discharged int
	// Unresolved counts crash paths the solver budget left undecided
	// (Options.SolverMaxConflicts / SolverTimeout), plus obligations lost
	// to contained engine panics or a watchdog interrupt. They block
	// Verified: an undecided obligation is reported, never assumed away.
	Unresolved int
	// UnresolvedCauses carries one line per unresolved obligation (sorted
	// for determinism) so reports and /stats can attribute degradation.
	UnresolvedCauses []string
}

// CrashFreedom proves that no input packet can crash the pipeline, for
// any packet contents and any length within the configured bounds.
// If the proof fails it returns concrete witness packets.
func (v *Verifier) CrashFreedom(p *click.Pipeline) (*CrashReport, error) {
	sp := v.tel.main.Begin("property", "crash-freedom")
	defer sp.End()
	// Step-1 fast path: if no element has a suspect segment, the
	// pipeline cannot crash — no composition needed (the paper's "if
	// this step does not yield any suspect segments, we are done").
	// Summarization fans out across the worker pool; when the check
	// fails, walk reuses every summary from the cache.
	summaries, err := v.summarizeAll(p.Elements)
	if errors.Is(err, errUnresolved) {
		// A contained summarization panic or interrupt: without summaries
		// nothing can be proved, but the daemon degrades, never fabricates.
		return &CrashReport{Unresolved: 1, UnresolvedCauses: []string{unresolvedCause(err)}}, nil
	}
	if err != nil {
		return nil, err
	}
	anySuspect := false
	for _, segs := range summaries {
		for _, s := range segs {
			if s.IsSuspect() {
				anySuspect = true
				break
			}
		}
		if anySuspect {
			break
		}
	}
	rep := &CrashReport{Verified: true}
	if !anySuspect {
		return rep, nil
	}
	err = v.walk(p, nil, func(end pathEnd) error {
		if end.disp != ir.Crashed {
			return nil
		}
		// Stateful refinement: a crash whose constraint mentions
		// private-state reads is realizable only if a bad value can
		// actually be in the store.
		realizable, err := v.statefulRealizable(p, end.state)
		if err != nil {
			return err
		}
		if !realizable {
			rep.Discharged++
			return nil
		}
		w, err := v.witness(p, end.state, nil)
		if errors.Is(err, errUnresolved) {
			rep.Unresolved++
			rep.Verified = false
			rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
			return nil
		}
		if err != nil {
			return err
		}
		w.Detail = fmt.Sprintf("%s: %s", end.crash.Kind, end.crash.Msg)
		rep.Verified = false
		rep.Witnesses = append(rep.Witnesses, w)
		return nil
	})
	if errors.Is(err, errUnresolved) {
		// The walk itself degraded (contained walker panic, watchdog
		// interrupt): the unexplored part of the path tree is an
		// unresolved obligation, not an error.
		rep.Unresolved++
		rep.Verified = false
		rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
		err = nil
	}
	if err != nil {
		return nil, err
	}
	sortWitnesses(rep.Witnesses)
	sort.Strings(rep.UnresolvedCauses)
	return rep, nil
}

// BoundReport is the outcome of the bounded-execution property.
type BoundReport struct {
	// MaxSteps is the maximum dynamic statement count any packet can
	// incur, over all feasible paths.
	MaxSteps int64
	// Witness attains MaxSteps.
	Witness Witness
	// CrashPossible notes that some input crashes the pipeline (the
	// bound then covers only non-crashing executions).
	CrashPossible bool
}

// BoundedInstructions computes the pipeline's worst-case instruction
// count and a packet that attains it — the paper's "maximum number of
// instructions that each pipeline may ever execute and which input
// causes it".
func (v *Verifier) BoundedInstructions(p *click.Pipeline) (*BoundReport, error) {
	return v.boundedInstructions(p, true)
}

// boundedInstructions is BoundedInstructions; fresh selects the fresh
// re-solve of the attaining path (see boundWitness). Batch passes false:
// admission verdicts carry the bound, not the packet attaining it, so
// they keep the walker's model, which boundWitness still checks against
// the path.
func (v *Verifier) boundedInstructions(p *click.Pipeline, fresh bool) (*BoundReport, error) {
	sp := v.tel.main.Begin("property", "bounded-instructions")
	defer sp.End()
	rep := &BoundReport{}
	var maxState *composed
	err := v.walk(p, nil, func(end pathEnd) error {
		if end.disp == ir.Crashed {
			realizable, err := v.statefulRealizable(p, end.state)
			if err != nil {
				return err
			}
			if realizable {
				rep.CrashPossible = true
			}
			return nil
		}
		// Ties break on path name so the reported witness does not
		// depend on the parallel walk's schedule.
		if end.state.steps < rep.MaxSteps {
			return nil
		}
		if end.state.steps == rep.MaxSteps && maxState != nil &&
			pathName(p, end.state) >= pathName(p, maxState) {
			return nil
		}
		rep.MaxSteps = end.state.steps
		maxState = end.state
		return nil
	})
	if err != nil {
		return nil, err
	}
	if maxState != nil {
		w, err := v.boundWitness(p, maxState, fresh)
		switch {
		case errors.Is(err, errUnresolved):
			// The bound itself stays sound (it is a maximum over paths the
			// solver could not rule out); only the attaining packet is
			// missing.
			rep.Witness = Witness{Path: pathName(p, maxState),
				Detail: fmt.Sprintf("executes %d statements (witness unresolved within solver budget)", rep.MaxSteps)}
		case err != nil:
			return nil, err
		default:
			w.Detail = fmt.Sprintf("executes %d statements", rep.MaxSteps)
			rep.Witness = w
		}
	}
	return rep, nil
}

// ReachSpec is a configuration-specific reachability property: under the
// given input assumptions, every feasible path must end at an accepted
// egress (and never drop or crash). This expresses properties like "any
// well-formed packet with destination IP X is never dropped".
type ReachSpec struct {
	// Name labels the property in reports.
	Name string
	// Assume constrains the input packet (expressions over the symbolic
	// entry packet, see symbex naming conventions).
	Assume []*expr.Expr
	// AcceptEgress reports whether ending at the given pipeline egress
	// id satisfies the property.
	AcceptEgress func(egress int) bool
}

// ReachReport is the outcome of a reachability property.
type ReachReport struct {
	Verified  bool
	Witnesses []Witness
	// Unresolved counts violating paths left undecided by the solver
	// budget, contained panics, or a watchdog interrupt (they block
	// Verified, like CrashReport.Unresolved).
	Unresolved int
	// UnresolvedCauses carries one line per unresolved obligation, sorted.
	UnresolvedCauses []string
}

// Reachability proves a ReachSpec over the pipeline.
func (v *Verifier) Reachability(p *click.Pipeline, spec ReachSpec) (*ReachReport, error) {
	sp := v.tel.main.Begin("property", "reachability:"+spec.Name)
	defer sp.End()
	rep := &ReachReport{Verified: true}
	err := v.walk(p, spec.Assume, func(end pathEnd) error {
		bad := ""
		switch end.disp {
		case ir.Crashed:
			realizable, err := v.statefulRealizable(p, end.state)
			if err != nil {
				return err
			}
			if realizable {
				bad = "crashes"
			}
		case ir.Dropped:
			bad = "is dropped"
		case ir.Emitted:
			if !spec.AcceptEgress(end.egress) {
				bad = fmt.Sprintf("exits at %s", p.EgressName(end.egress))
			}
		}
		if bad == "" {
			return nil
		}
		w, err := v.witness(p, end.state, spec.Assume)
		if errors.Is(err, errUnresolved) {
			rep.Unresolved++
			rep.Verified = false
			rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
			return nil
		}
		if err != nil {
			return err
		}
		w.Detail = fmt.Sprintf("%s: packet %s", spec.Name, bad)
		rep.Verified = false
		rep.Witnesses = append(rep.Witnesses, w)
		return nil
	})
	if errors.Is(err, errUnresolved) {
		rep.Unresolved++
		rep.Verified = false
		rep.UnresolvedCauses = append(rep.UnresolvedCauses, unresolvedCause(err))
		err = nil
	}
	if err != nil {
		return nil, err
	}
	sortWitnesses(rep.Witnesses)
	sort.Strings(rep.UnresolvedCauses)
	return rep, nil
}

// checkedModel returns a model for the path's stitched constraints plus
// extra (nil = none): m is reused when the caller already has one, the
// root session is queried otherwise. Either way the result is
// cross-checked under evaluation semantics — a failure there indicates
// a solver or composition bug, not a property violation. It queries the
// root session, so it must only run under visitMu (visit callbacks) or
// after the walk has completed.
func (v *Verifier) checkedModel(p *click.Pipeline, st *composed, m *expr.Assignment, extraPre []*expr.Expr, extra *expr.Expr) (*expr.Assignment, error) {
	cons := append([]*expr.Expr{}, st.conds...)
	if extra != nil {
		cons = append(cons, extra)
	}
	if m == nil {
		lbl := ""
		if v.tel.active() {
			lbl = pathName(p, st)
		}
		ok, got, unknown := v.feasibleRoot(&composed{}, append(append([]*expr.Expr{}, extraPre...), cons...), nil, "witness", lbl)
		if unknown {
			return nil, fmt.Errorf("%w: %s", errUnresolved, pathName(p, st))
		}
		if !ok || got == nil {
			return nil, fmt.Errorf("verify: cannot produce witness for feasible path %s", pathName(p, st))
		}
		m = got
	}
	for _, c := range cons {
		if !expr.Eval(c, m).IsTrue() {
			return nil, fmt.Errorf("verify: internal error: witness model violates path constraint %s on %s",
				c, pathName(p, st))
		}
	}
	return m, nil
}

// witness turns a feasible composed path into a concrete packet (under
// the same visitMu caveat as checkedModel). A panic during extraction is
// contained into an unresolved obligation and resets the root session
// it was querying.
func (v *Verifier) witness(p *click.Pipeline, st *composed, extraPre []*expr.Expr) (w Witness, err error) {
	defer v.capturePanic("witness extraction", v.rootSession, &err)
	m, err := v.checkedModel(p, st, st.model, extraPre, nil)
	if err != nil {
		return Witness{}, err
	}
	return Witness{Packet: packetFromModel(m, v.opts.MinLen, v.opts.MaxLen), Path: pathName(p, st)}, nil
}

// boundWitness is witness for the path attaining the instruction bound.
// At Parallelism > 1 the walker's model for that path depends on the
// schedule: whichever worker stitched the path solved it, and the model
// a session returns depends on its search history (learnt clauses,
// saved phases) and on models the verdict cache kept from other
// sessions. With fresh set, the path condition is re-solved on a
// throwaway solver, whose model depends on the path alone, so a warm
// run over a summary store reports the cold run's bytes. When that
// solve is not Sat (budget, injected fault, interrupt) the walker's
// model stands. witness checks whichever model is kept against every
// path constraint.
func (v *Verifier) boundWitness(p *click.Pipeline, st *composed, fresh bool) (w Witness, err error) {
	if fresh && v.parallelism() > 1 {
		defer v.capturePanic("witness extraction", nil, &err)
		fs := smt.New(v.solver.Opts)
		defer func() {
			v.mu.Lock()
			v.stats.Solver.Add(fs.Stats())
			v.mu.Unlock()
		}()
		sess := fs.NewSession()
		v.tel.bindSession(sess, v.tel.main)
		defer v.tel.bindSession(sess, nil)
		lbl := ""
		if v.tel.active() {
			lbl = pathName(p, st)
		}
		if _, m, _ := v.feasible(sess, &composed{}, st.conds, nil, "witness", lbl); m != nil {
			st.model = m
		}
	}
	return v.witness(p, st, nil)
}

// packetFromModel materializes the symbolic entry packet of a model.
func packetFromModel(m *expr.Assignment, minLen, maxLen uint64) []byte {
	n := uint64(0)
	if v, ok := m.Vars[symbex.PktLenVar]; ok {
		n = v.Int()
	}
	if n < minLen {
		n = minLen
	}
	if n > maxLen {
		n = maxLen
	}
	pkt := make([]byte, n)
	copy(pkt, m.Arrays[symbex.PktArrayName])
	return pkt
}

// FormatWitness renders a witness for CLI reports. Spec-violation
// witnesses additionally carry the concrete output packet; the dump
// marks the bytes that differ from the input with a trailing asterisk.
func FormatWitness(w Witness) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  path:   %s\n", w.Path)
	fmt.Fprintf(&b, "  detail: %s\n", w.Detail)
	fmt.Fprintf(&b, "  packet: (%d bytes)", len(w.Packet))
	hexDump(&b, w.Packet, nil)
	if w.Output != nil {
		fmt.Fprintf(&b, "  output: (%d bytes, * marks bytes changed by the pipeline)", len(w.Output))
		hexDump(&b, w.Output, w.Packet)
	}
	return b.String()
}

// hexDump writes the 16-per-line hex dump used by witness reports,
// truncating past 64 bytes. When ref is non-nil, bytes differing from
// the same offset in ref are marked with '*' (and matching bytes carry a
// space so columns stay aligned; line ends are trimmed).
func hexDump(b *strings.Builder, data, ref []byte) {
	var line strings.Builder
	flush := func() {
		b.WriteString(strings.TrimRight(line.String(), " "))
		line.Reset()
	}
	for i, by := range data {
		if i%16 == 0 {
			flush()
			fmt.Fprintf(&line, "\n    %04x:", i)
		}
		mark := ""
		if ref != nil {
			mark = " "
			if i >= len(ref) || ref[i] != by {
				mark = "*"
			}
		}
		fmt.Fprintf(&line, " %02x%s", by, mark)
		if i >= 63 && len(data) > 64 {
			fmt.Fprintf(&line, " … (+%d)", len(data)-i-1)
			break
		}
	}
	flush()
	b.WriteByte('\n')
}
