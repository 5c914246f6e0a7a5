// Command perfbench is the repository benchmark: three workloads that
// measure what a user of vsd feels — how long a new pipeline takes to
// certify (certify-cold), how fast the admission daemon answers a
// stream of submissions (admit), and how many packets per second the
// certified pipeline forwards (forward) — plus a traced mode that
// splits each result by layer. See README.md beside this file.
//
// Usage (from the repository root, through run.sh, which builds the
// binaries first):
//
//	bash perfbench/run.sh --workload certify-cold|admit|forward \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a
// detail record: host and input stamp, per-workload named metrics and
// the properties each workload relies on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxLen is the symbolic packet-length bound every verification in the
// benchmark uses (the corpus golden verdicts are stated at this bound).
const maxLen = 48

// setupReps is how many times a sub-millisecond set-up is repeated
// for its median.
const setupReps = 201

// parallelism is the verifier worker pool size; the benchmark host has
// two cores and load comes from at most two threads.
const parallelism = 2

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout holding examples/corpus
	serveBin string // vsdserve binary built from the checkout
	work     string // work directory for builds, stores, queues and traces
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	attempted int
	failed    int
	// problems lists the first few correctness failures, for stderr.
	problems []string
	metrics  map[string]metric
	// detail carries the stamp and the workload's named metrics; it is
	// printed on the line before the result.
	detail map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, detail: map[string]any{}}
}

// fail records one failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "certify-cold, admit or forward")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.serveBin, "serve", "", "vsdserve binary (admit workload)")
	flag.StringVar(&cfg.work, "work", ".bench_build", "work directory for stores, queues and traces")
	flag.Parse()
	cfg.trace = *trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "examples", "corpus", "router.click")); err != nil {
		return fmt.Errorf("no corpus under %s: %w", cfg.root, err)
	}
	runDir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	var res *result
	switch cfg.workload {
	case "certify-cold":
		res, err = certifyCold(cfg, runDir)
	case "admit":
		res, err = admitWorkload(cfg, runDir)
	case "forward":
		res, err = forwardWorkload(cfg)
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res.detail["host"] = hostStamp()
	res.detail["workload"] = cfg.workload
	res.detail["seed"] = cfg.seed
	res.detail["seconds"] = cfg.seconds
	res.detail["maxlen"] = maxLen
	res.detail["trace"] = cfg.trace
	res.detail["error_rate"] = float64(res.failed) / float64(max(res.attempted, 1))
	detail, err := json.Marshal(res.detail)
	if err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, out)
	return nil
}

// hostStamp identifies the machine a result was measured on.
func hostStamp() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        model,
	}
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// quantile returns the q-quantile of xs with linear interpolation
// between order statistics (the numpy default); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeSetups times setupReps runs of fn. Each starts from a freshly
// collected heap, so a collection triggered by one repetition's
// allocations does not land inside another's timing.
func timeSetups(fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, secs(time.Since(start)))
	}
	return out, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(d time.Duration) float64 { return d.Seconds() }

// readCorpus loads the four example pipelines' Click sources.
func readCorpus(root string) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range corpusOrder {
		src, err := os.ReadFile(filepath.Join(root, "examples", "corpus", name+".click"))
		if err != nil {
			return nil, err
		}
		out[name] = string(src)
	}
	return out, nil
}
