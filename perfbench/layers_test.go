package main

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"vsd/internal/telemetry"
)

// TestAnalyzeTraceSelfTimes checks the self-time attribution on a trace
// recorded with a fake clock: a child's duration is taken out of its
// parent, and root spans sum to the traced wall.
func TestAnalyzeTraceSelfTimes(t *testing.T) {
	now := int64(0)
	tr := telemetry.New(telemetry.Opts{Now: func() int64 { return now }})
	lane := tr.Lane("test")
	root := lane.Begin("bench", "root")
	now += 1000
	sum := lane.Begin("symbex", "summarize:X")
	now += 5000
	st := lane.Begin("store", "store.save")
	now += 2000
	st.End()
	sum.End()
	now += 500
	root.End()

	b, err := analyzeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"bench": 1.5e-6, "symbex": 5e-6, "store": 2e-6}
	for cat, v := range want {
		if d := b.byCat[cat] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %g, want %g", cat, b.byCat[cat], v)
		}
	}
	if d := b.wall - 8.5e-6; d > 1e-12 || d < -1e-12 {
		t.Errorf("traced wall = %g, want 8.5e-6", b.wall)
	}
}

// TestDelayInjectionMovesOnlyStore is the attribution self-test: runs
// of the same code compared with each other show no change, and a fixed
// delay injected into the timing store wrapper moves only the store
// layer and the certification time — not Step-1, whose time is the
// Summarize span minus the store spans inside it, and not Step-2.
func TestDelayInjectionMovesOnlyStore(t *testing.T) {
	if testing.Short() {
		t.Skip("certifies three corpus pipelines fifteen times")
	}
	srcs, err := readCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	// The router is left out: its Step-1 alone takes about ten seconds.
	names := []string{"filter", "nat", "probe"}
	run := func(delay time.Duration) map[string]float64 {
		res := newResult()
		b, _, st, store, err := tracedCertify(res, srcs, names, t.TempDir(), delay)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed > 0 {
			t.Fatalf("verdicts: %v", res.problems)
		}
		all := certifyLayers(b, st, store)
		out := map[string]float64{"certify_others_s": b.wall}
		for _, k := range []string{"click.parse_s", "symbex.summarize_s", "verify.crash_s",
			"verify.bound_s", "verify.induction_s", "store.save_s", "store.load_s"} {
			out[k] = all[k]
		}
		return out
	}
	// A run makes about twenty store calls, so a delay of a tenth of a
	// plain run's time at least doubles the certification time, however
	// slow the build (the race detector slows it tenfold).
	delay := max(50*time.Millisecond, time.Duration(run(0)["certify_others_s"]/10*float64(time.Second)))
	var base, same, delayed []map[string]float64
	for i := 0; i < 5; i++ {
		base = append(base, run(0))
		same = append(same, run(0))
		delayed = append(delayed, run(delay))
	}
	// The relative floor is wide because the host's speed drifts by tens
	// of percent within seconds; the injected delay moves its metrics
	// severalfold, far past it.
	if got := changed(base, same, 0.5, 0.01); len(got) != 0 {
		t.Errorf("a run compared with itself changed: %v", got)
	}
	want := []string{"certify_others_s", "store.load_s", "store.save_s"}
	if got := changed(base, delayed, 0.5, 0.01); !reflect.DeepEqual(got, want) {
		t.Errorf("an injected store delay changed %v, want exactly %v", got, want)
	}
}

// changed compares two sets of repeated runs metric by metric and
// returns the metrics whose medians moved by more than the noise: more
// than three times the wider of the two interquartile ranges, more
// than rel of the base median, and more than abs. It is how a run is
// compared with itself, or with a run carrying an injected fault.
func changed(base, cand []map[string]float64, rel, abs float64) []string {
	var names []string
	for name := range base[0] {
		var a, b []float64
		for _, m := range base {
			a = append(a, m[name])
		}
		for _, m := range cand {
			b = append(b, m[name])
		}
		ma, mb := median(a), median(b)
		noise := 3 * max(quantile(a, 0.75)-quantile(a, 0.25), quantile(b, 0.75)-quantile(b, 0.25))
		d := mb - ma
		if d < 0 {
			d = -d
		}
		if d > noise && d > rel*ma && d > abs {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
