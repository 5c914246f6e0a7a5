package main

// Per-layer attribution. Every layer is measured from outside, by the
// benchmark's own spans around calls into that layer's public
// functions (and, for the daemon, by deltas of its /metrics and /stats
// counters). A span's self time is its duration minus the part its
// child spans cover; a layer's time is the summed self time of its
// spans, and the benchmark's own spans ("bench") are the unattributed
// rest.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"vsd/internal/ir"
	"vsd/internal/symbex"
	"vsd/internal/telemetry"
	"vsd/internal/verify"
)

// layerMetrics lists every per-layer metric with its unit, in report
// order. A traced run reports all of them; a layer the workload never
// reaches reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"click.parse_s", "s"},
	{"symbex.summarize_s", "s"},
	{"symbex.IPOptions_s", "s"},
	{"symbex.engine_runs", "count"},
	{"symbex.segments", "count"},
	{"verify.crash_s", "s"},
	{"verify.bound_s", "s"},
	{"verify.induction_s", "s"},
	{"verify.composed_paths", "count"},
	{"verify.infeasible_ratio", "ratio"},
	{"smt.solve_s", "s"},
	{"smt.solve_p99_s", "s"},
	{"smt.sat_calls", "count"},
	{"smt.conflicts", "count"},
	{"smt.cnf_clauses", "count"},
	{"smt.unknowns", "count"},
	{"smt.cache_hit_ratio", "ratio"},
	{"store.save_s", "s"},
	{"store.saves", "count"},
	{"store.load_s", "s"},
	{"store.hits", "count"},
	{"queue.wait_s", "s"},
	{"queue.journal_s", "s"},
	{"vsdserve.http_s", "s"},
	{"verify.admit_s", "s"},
	{"compile.process_ns_per_pkt", "ns"},
	{"compile.steps_per_pkt", "count"},
	{"compile.dispatches_per_pkt", "count"},
	{"compile.allocs_per_pkt", "count"},
	{"dataplane.copy_ns_per_pkt", "ns"},
	{"dataplane.exit_ratio", "ratio"},
	{"loadgen.late_p95_s", "s"},
	{"unattributed_s", "s"},
	{"trace.overhead_s", "s"},
}

// setLayers reports every per-layer metric, taking values from vals
// and 0 for the layers the workload bypasses.
func (r *result) setLayers(vals map[string]float64) error {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		r.set(m.name, vals[m.name], m.unit)
	}
	for k := range vals {
		if !known[k] {
			return fmt.Errorf("layer metric %q is not declared", k)
		}
	}
	return nil
}

// timedStore wraps a SummaryStore and times every Load and Save: the
// store layer, measured from outside. delay, when set, is added inside
// the timed region (the self-test's injected fault). With a lane set,
// each call also records a span; the lane must then only be used from
// one goroutine, so the traced run summarizes sequentially.
type timedStore struct {
	inner verify.SummaryStore
	delay time.Duration
	lane  *telemetry.Lane

	hits, saves    atomic.Int64
	loadNs, saveNs atomic.Int64
}

func (s *timedStore) Load(fp ir.Fingerprint) (*symbex.Summary, bool) {
	sp := s.lane.Begin("store", "store.load")
	start := time.Now()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	sum, ok := s.inner.Load(fp)
	s.loadNs.Add(int64(time.Since(start)))
	sp.End()
	if ok {
		s.hits.Add(1)
	}
	return sum, ok
}

func (s *timedStore) Save(fp ir.Fingerprint, sum *symbex.Summary) {
	sp := s.lane.Begin("store", "store.save")
	start := time.Now()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.inner.Save(fp, sum)
	s.saveNs.Add(int64(time.Since(start)))
	sp.End()
	s.saves.Add(1)
}

// traceBreakdown is the self-time attribution of one trace.
type traceBreakdown struct {
	// byCat and byName sum self time (seconds) per span category (the
	// layer) and per span name.
	byCat  map[string]float64
	byName map[string]float64
	// wall is the summed duration of root spans: the traced wall time.
	wall float64
}

// coverage is the share of the traced wall attributed to a layer.
func (b traceBreakdown) coverage() float64 {
	return 1 - ratio(b.byCat["bench"], b.wall)
}

// analyzeTrace serializes the tracer, validates the trace with
// telemetry.ValidateTrace and computes self times per layer.
func analyzeTrace(tr *telemetry.Tracer) (traceBreakdown, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return traceBreakdown{}, err
	}
	data := buf.Bytes()
	if err := telemetry.ValidateTrace(data); err != nil {
		return traceBreakdown{}, err
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			TID           int
			TS, Dur       float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return traceBreakdown{}, err
	}
	type span struct {
		name, cat  string
		start, end float64
		self       float64
	}
	lanes := map[int][]*span{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		lanes[e.TID] = append(lanes[e.TID], &span{name: e.Name, cat: e.Cat, start: e.TS, end: e.TS + e.Dur, self: e.Dur})
	}
	b := traceBreakdown{byCat: map[string]float64{}, byName: map[string]float64{}}
	for _, spans := range lanes {
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []*span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].self -= s.end - s.start
			} else {
				b.wall += (s.end - s.start) / 1e6
			}
			stack = append(stack, s)
		}
		for _, s := range spans {
			b.byCat[s.cat] += s.self / 1e6
			b.byName[s.name] += s.self / 1e6
		}
	}
	return b, nil
}
