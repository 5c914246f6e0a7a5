package main

// certify-cold: what a new pipeline's author pays. Each round builds a
// fresh Verifier over an empty DiskStore and admits the four corpus
// pipelines one Batch call at a time, router first. Closed loop, one
// client, nothing else running.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/telemetry"
	"vsd/internal/verify"
)

// corpusOrder is the admission order of a certify-cold round.
var corpusOrder = []string{"router", "filter", "nat", "probe"}

// golden is a corpus pipeline's expected verdict at maxLen 48: every
// pipeline is certified and crash-free with this instruction bound.
type golden struct {
	bound      int64
	boundUpper bool // loop-state merging makes the bound an upper bound
	inductionK int  // stateful: crash freedom proved by k-induction at this k
}

var goldens = map[string]golden{
	"router": {bound: 922, boundUpper: true},
	"filter": {bound: 128},
	"nat":    {bound: 191, inductionK: 1},
	"probe":  {bound: 94},
}

// checkVerdict returns why a Batch verdict differs from the golden one
// ("" when it matches).
func checkVerdict(name string, vd verify.BatchVerdict) string {
	g := goldens[name]
	switch {
	case vd.Error != "":
		return "error: " + vd.Error
	case vd.Unresolved > 0:
		return fmt.Sprintf("%d unresolved obligation(s)", vd.Unresolved)
	case !vd.Certified || !vd.CrashFree:
		return fmt.Sprintf("certified=%v crash_free=%v", vd.Certified, vd.CrashFree)
	case vd.BoundSteps != g.bound || vd.BoundIsUpper != g.boundUpper:
		return fmt.Sprintf("bound %d (upper %v), want %d (upper %v)", vd.BoundSteps, vd.BoundIsUpper, g.bound, g.boundUpper)
	}
	if g.inductionK > 0 {
		if len(vd.Induction) != 1 || !vd.Induction[0].Proved || vd.Induction[0].K != g.inductionK {
			return fmt.Sprintf("induction %+v, want proved at k=%d", vd.Induction, g.inductionK)
		}
	} else if len(vd.Induction) != 0 {
		return fmt.Sprintf("unexpected induction %+v", vd.Induction)
	}
	return ""
}

// certSetup is one round's set-up: the parsed corpus, a fresh
// DiskStore behind the timing wrapper, and a fresh Verifier.
type certSetup struct {
	pipes map[string]*click.Pipeline
	store *timedStore
	v     *verify.Verifier
}

// newCertSetup parses the corpus and builds the store and verifier; a
// non-nil lane records one span per layer call.
func newCertSetup(srcs map[string]string, names []string, storeDir string, lane *telemetry.Lane) (*certSetup, error) {
	s := &certSetup{pipes: map[string]*click.Pipeline{}}
	for _, name := range names {
		sp := lane.Begin("click", "click.parse")
		p, err := click.Parse(elements.Default(), srcs[name])
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", name, err)
		}
		s.pipes[name] = p
	}
	sp := lane.Begin("store", "store.open")
	disk, err := verify.NewDiskStore(storeDir)
	sp.End()
	if err != nil {
		return nil, err
	}
	s.store = &timedStore{inner: disk, lane: lane}
	sp = lane.Begin("verify", "verify.new")
	s.v = verify.New(verify.Options{MaxLen: maxLen, Parallelism: parallelism, Store: s.store})
	sp.End()
	return s, nil
}

// runCertRound runs one untraced round over names, checking every
// verdict against its golden one, and returns each pipeline's Batch
// wall time.
func runCertRound(res *result, srcs map[string]string, names []string, storeDir string) (map[string]float64, error) {
	s, err := newCertSetup(srcs, names, storeDir, nil)
	if err != nil {
		return nil, err
	}
	times := map[string]float64{}
	for _, name := range names {
		t := time.Now()
		vd := s.v.Batch([]verify.BatchItem{{Name: name, Pipeline: s.pipes[name]}})[0]
		times[name] = secs(time.Since(t))
		res.attempted++
		if why := checkVerdict(name, vd); why != "" {
			res.fail("certify-cold %s: %s", name, why)
		}
	}
	return times, nil
}

func certifyCold(cfg config, runDir string) (*result, error) {
	res := newResult()
	srcs, err := readCorpus(cfg.root)
	if err != nil {
		return nil, err
	}
	dirs := 0
	nextStore := func() string {
		dirs++
		return filepath.Join(runDir, fmt.Sprintf("store-%d", dirs))
	}
	if cfg.trace {
		return certifyTraced(cfg, res, srcs, nextStore)
	}

	// Set-up alone is under a millisecond, so it is repeated and the
	// median reported.
	setups, err := timeSetups(func() error {
		_, err := newCertSetup(srcs, corpusOrder, nextStore(), nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Rounds run until the next one would overrun the measurement
	// window by more than half a round.
	var all, roundMedians []float64
	var router, others []float64
	perPipe := map[string][]float64{}
	busy := 0.0
	start := time.Now()
	for last := 0.0; len(router) == 0 || secs(time.Since(start))+last/2 <= cfg.seconds; {
		t := time.Now()
		times, err := runCertRound(res, srcs, corpusOrder, nextStore())
		if err != nil {
			return nil, err
		}
		last = secs(time.Since(t))
		var round []float64
		for _, name := range corpusOrder {
			round = append(round, times[name])
			perPipe[name] = append(perPipe[name], times[name])
			busy += times[name]
		}
		all = append(all, round...)
		roundMedians = append(roundMedians, median(round))
		router = append(router, times["router"])
		others = append(others, times["filter"]+times["nat"]+times["probe"])
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", rss, "MB")
	// A round's four submissions fall in four cost classes, so the
	// median is taken per round (the midpoint of its second and third
	// class) and then across rounds, rather than from the extremes of
	// the pooled classes.
	res.set("latency_p50_s", median(roundMedians), "s")
	res.set("latency_p90_s", quantile(all, 0.9), "s")
	res.set("throughput_per_s", float64(len(all))/busy, "1/s")
	res.detail["certify_router_s"] = median(router)
	res.detail["certify_others_s"] = median(others)
	for name, ts := range perPipe {
		res.detail["certify_"+name+"_s"] = median(ts)
	}
	res.detail["rounds"] = len(router)
	res.detail["submissions"] = len(all)
	res.detail["setup_samples"] = len(setups)
	return res, nil
}

// tracedCertify runs one round over names with a span around every
// layer call. Step 1 runs first, one Summarize per element in pipeline
// order on one goroutine (so the store wrapper's spans nest inside the
// summarize span that caused them); Step 2 then runs on cached
// summaries: CrashFreedom, BoundedInstructions and, for stateful
// pipelines, SeqCrashFreedom.
func tracedCertify(res *result, srcs map[string]string, names []string, storeDir string, delay time.Duration) (traceBreakdown, *telemetry.Tracer, verify.Stats, *timedStore, error) {
	tr := telemetry.New(telemetry.Opts{})
	lane := tr.Lane("perfbench")
	root := lane.Begin("bench", "certify-cold round")
	s, err := newCertSetup(srcs, names, storeDir, lane)
	if err != nil {
		return traceBreakdown{}, nil, verify.Stats{}, nil, err
	}
	s.store.delay = delay
	for _, name := range names {
		p := s.pipes[name]
		res.attempted++
		var why string
		for _, e := range p.Elements {
			sp := lane.Begin("symbex", "summarize:"+e.Class())
			_, err := s.v.Summarize(e)
			sp.End()
			if err != nil {
				why = err.Error()
			}
		}
		sp := lane.Begin("verify.crash", "verify.crash")
		crash, err := s.v.CrashFreedom(p)
		sp.End()
		if err != nil {
			why = err.Error()
		} else if !crash.Verified || crash.Unresolved > 0 {
			why = fmt.Sprintf("crash freedom verified=%v unresolved=%d", crash.Verified, crash.Unresolved)
		}
		sp = lane.Begin("verify.bound", "verify.bound")
		bound, err := s.v.BoundedInstructions(p)
		sp.End()
		if err != nil {
			why = err.Error()
		} else if bound.MaxSteps != goldens[name].bound {
			why = fmt.Sprintf("bound %d, want %d", bound.MaxSteps, goldens[name].bound)
		}
		if k := goldens[name].inductionK; k > 0 {
			sp = lane.Begin("verify.induction", "verify.induction")
			ind, err := s.v.SeqCrashFreedom(p, verify.SeqOptions{})
			sp.End()
			if err != nil {
				why = err.Error()
			} else if !ind.Proved || ind.K != k {
				why = fmt.Sprintf("induction proved=%v k=%d, want k=%d", ind.Proved, ind.K, k)
			}
		}
		if why != "" {
			res.fail("certify-cold traced %s: %s", name, why)
		}
	}
	root.End()
	b, err := analyzeTrace(tr)
	return b, tr, s.v.Stats(), s.store, err
}

// certifyLayers turns a traced round into per-layer metrics.
func certifyLayers(b traceBreakdown, st verify.Stats, store *timedStore) map[string]float64 {
	return map[string]float64{
		"click.parse_s":           b.byCat["click"],
		"symbex.summarize_s":      b.byCat["symbex"],
		"symbex.IPOptions_s":      b.byName["summarize:IPOptions"],
		"symbex.engine_runs":      float64(st.ElementsSummarized),
		"symbex.segments":         float64(st.SegmentsTotal),
		"verify.crash_s":          b.byCat["verify.crash"],
		"verify.bound_s":          b.byCat["verify.bound"],
		"verify.induction_s":      b.byCat["verify.induction"],
		"verify.composed_paths":   float64(st.ComposedPaths),
		"verify.infeasible_ratio": ratio(float64(st.ComposedInfeasible), float64(st.ComposedPaths)),
		"smt.solve_s":             float64(st.SolveTimes.Sum) / 1e9,
		"smt.solve_p99_s":         float64(st.SolveTimes.P99) / 1e9,
		"smt.sat_calls":           float64(st.Solver.SatCalls),
		"smt.conflicts":           float64(st.Solver.SatConflicts),
		"smt.cnf_clauses":         float64(st.Solver.CNFClauses),
		"smt.unknowns":            float64(st.Solver.Unknowns),
		"smt.cache_hit_ratio":     ratio(float64(st.Solver.CacheHits), float64(st.Solver.Queries)),
		"store.save_s":            float64(store.saveNs.Load()) / 1e9,
		"store.saves":             float64(store.saves.Load()),
		"store.load_s":            float64(store.loadNs.Load()) / 1e9,
		"store.hits":              float64(store.hits.Load()),
		"unattributed_s":          b.byCat["bench"],
	}
}

// certifyTraced is the traced certify-cold run: one untraced round,
// then the same round traced. Their wall-time difference is the
// tracing overhead (it includes the Step-1 overlap the traced round
// gives up by summarizing on one goroutine).
func certifyTraced(cfg config, res *result, srcs map[string]string, nextStore func() string) (*result, error) {
	start := time.Now()
	if _, err := runCertRound(res, srcs, corpusOrder, nextStore()); err != nil {
		return nil, err
	}
	untraced := secs(time.Since(start))
	b, tr, st, store, err := tracedCertify(res, srcs, corpusOrder, nextStore(), 0)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, tr); err != nil {
		return nil, err
	}
	vals := certifyLayers(b, st, store)
	vals["trace.overhead_s"] = b.wall - untraced
	if cov := b.coverage(); cov < 0.95 {
		res.fail("per-layer self time covers %.1f%% of the traced wall, want at least 95%%", 100*cov)
	}
	res.detail["traced_wall_s"] = b.wall
	res.detail["coverage"] = b.coverage()
	return res, res.setLayers(vals)
}

// writeTrace saves the traced run's Chrome trace-event JSON (loadable
// in ui.perfetto.dev) under the work directory.
func writeTrace(cfg config, tr *telemetry.Tracer) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.trace.json", cfg.workload, cfg.seed)))
}
