package main

// admit: the real vsdserve binary, built from the tree under test,
// serving over loopback with a warm -store and the journaled -queue.
// Submissions arrive open loop on a seeded Poisson schedule at one
// fixed offered rate; a closed-loop phase with two clients then
// measures throughput.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/packet"
	"vsd/internal/telemetry"
	"vsd/internal/verify"
)

const (
	// offeredRate is the open-loop arrival rate (submissions/s): about a
	// third of the closed-loop capacity measured on the two-core
	// reference host (~19 verdicts/s).
	offeredRate = 6.0
	// The window is split into three phases: open loop (openShare),
	// one client back to back (latencyShare), and two clients back to
	// back for throughput (the rest).
	openShare    = 0.2
	latencyShare = 0.5
	// clients bounds client threads and connections.
	clients = 2
)

// admitCycle is the submission deck: each run of 20 submissions holds
// exactly these kinds, shuffled, so the generator — not chance — sets
// the repeat share (15%) and the designed-unsafe share (10%). The
// shares also place the median inside one cost class: resubmissions,
// unsafe probes and NAT variants (35%) take milliseconds, FixedReader
// variants (30%) tens of milliseconds, router and filter variants
// (35%) over a hundred. A median on the edge between two classes would
// jump between them with the last few submissions of a run.
var admitCycle = []string{
	"router", "router", "router", "router",
	"filter", "filter", "filter",
	"nat", "nat",
	"probe", "probe", "probe", "probe", "probe", "probe",
	"unsafe", "unsafe",
	"repeat", "repeat", "repeat",
}

// submission is one generated admission request.
type submission struct {
	name   string
	config string
	// family selects the designed outcome: a corpus name (certified,
	// like its base pipeline) or "unsafe" (rejected with a witness).
	family string
	repeat bool
}

// admitGen generates seeded submissions: variants of the corpus that
// each change one element's configuration, exact resubmissions, and
// designed-unsafe UnsafeReader probes. Every variant is new within a
// run; the variant spaces hold thousands of configurations or more,
// far above the submissions a run makes.
type admitGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	corpus  map[string]string
	deck    []string
	used    map[string]bool
	history []submission
	n       int
}

func newAdmitGen(seed int64, corpus map[string]string) *admitGen {
	g := &admitGen{rng: rand.New(rand.NewSource(seed)), corpus: corpus, used: map[string]bool{}}
	for _, name := range corpusOrder {
		g.used[corpus[name]] = true
		g.history = append(g.history, submission{name: name, config: corpus[name], family: name})
	}
	return g
}

// variant rewrites one element configuration of a corpus pipeline.
func (g *admitGen) variant(kind string) (string, string) {
	r := g.rng
	switch kind {
	case "router":
		return "router", fmt.Sprintf("10.%d.%d.0/24 0,", r.Intn(256), r.Intn(256))
	case "filter":
		return "filter", fmt.Sprintf("dport %d,", 1+r.Intn(65535))
	case "nat":
		return "nat", fmt.Sprintf("SNAT 100.64.%d.%d)", r.Intn(256), 2+r.Intn(250))
	// Reader windows start past any packet of at most maxLen bytes, so
	// every offset costs the same: FixedReader never reads, and
	// UnsafeReader always overruns.
	case "probe":
		return "probe", fmt.Sprintf("FixedReader(%d)", 64+r.Intn(60000))
	default:
		return "probe", fmt.Sprintf("UnsafeReader(%d)", 64+r.Intn(60000))
	}
}

// variantSites names the text each family's variants replace.
var variantSites = map[string]string{
	"router": "10.0.0.0/8 0,",
	"filter": "dport 53,",
	"nat":    "SNAT 100.64.0.1)",
	"probe":  "FixedReader(60)",
}

func (g *admitGen) next() (submission, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.deck) == 0 {
		g.deck = append([]string(nil), admitCycle...)
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	kind := g.deck[0]
	g.deck = g.deck[1:]
	g.n++
	if kind == "repeat" {
		s := g.history[g.rng.Intn(len(g.history))]
		s.name = fmt.Sprintf("s%d-repeat", g.n)
		s.repeat = true
		return s, nil
	}
	for {
		base, repl := g.variant(kind)
		src := g.corpus[base]
		if !strings.Contains(src, variantSites[base]) {
			return submission{}, fmt.Errorf("corpus %s no longer contains %q", base, variantSites[base])
		}
		config := strings.Replace(src, variantSites[base], repl, 1)
		if g.used[config] {
			continue
		}
		g.used[config] = true
		family := base
		if kind == "unsafe" {
			family = "unsafe"
		}
		s := submission{name: fmt.Sprintf("s%d-%s", g.n, kind), config: config, family: family}
		g.history = append(g.history, s)
		return s, nil
	}
}

// checkAdmit returns why a verdict differs from the submission's
// designed outcome ("" when it matches). Route-prefix, filter-port
// and SNAT variants keep their base pipeline's golden verdict;
// FixedReader offsets move the bound, so probes need only be
// certified; UnsafeReader probes must be rejected with a witness.
func checkAdmit(s submission, vd verify.BatchVerdict) string {
	switch s.family {
	case "unsafe":
		if vd.Error != "" || vd.Certified || vd.CrashFree || len(vd.Witnesses) == 0 {
			return fmt.Sprintf("designed-unsafe: certified=%v crash_free=%v witnesses=%d error=%q",
				vd.Certified, vd.CrashFree, len(vd.Witnesses), vd.Error)
		}
		return ""
	case "probe":
		if vd.Error != "" || vd.Unresolved > 0 || !vd.Certified || !vd.CrashFree {
			return fmt.Sprintf("certified=%v crash_free=%v unresolved=%d error=%q",
				vd.Certified, vd.CrashFree, vd.Unresolved, vd.Error)
		}
		return ""
	}
	return checkVerdict(s.family, vd)
}

// daemon is one running vsdserve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	http   *http.Client
	exited chan struct{}
}

// startDaemon launches vsdserve on a free loopback port and waits until
// /healthz answers.
func startDaemon(cfg config, storeDir, queueDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(filepath.Dir(queueDir), "vsdserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(cfg.serveBin, "-addr", addr, "-store", storeDir, "-queue", queueDir,
		"-maxlen", strconv.Itoa(maxLen), "-parallel", strconv.Itoa(parallelism), "-drain-timeout", "10s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		http: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
	}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("vsdserve exited before answering /healthz (see %s)", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("vsdserve did not answer /healthz within 30s")
		}
	}
}

// stop shuts the daemon down gracefully and waits until it has exited.
func (d *daemon) stop() {
	d.http.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// post submits one configuration and returns the raw response body.
func (d *daemon) post(s submission) ([]byte, error) {
	res, err := d.http.Post(d.base+"/verify?name="+url.QueryEscape(s.name), "text/plain", strings.NewReader(s.config))
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", res.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// submit posts s and checks the verdict against its designed outcome.
func (d *daemon) submit(res *result, mu *sync.Mutex, s submission) {
	body, err := d.post(s)
	record(res, mu, s, body, err)
}

// record counts one submission as attempted, and as failed when the
// request failed or its verdict differs from the designed outcome.
func record(res *result, mu *sync.Mutex, s submission, body []byte, err error) {
	why := ""
	if err != nil {
		why = err.Error()
	} else {
		var vd verify.BatchVerdict
		if err := json.Unmarshal(body, &vd); err != nil {
			why = "bad verdict JSON: " + err.Error()
		} else {
			why = checkAdmit(s, vd)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	res.attempted++
	if why != "" {
		res.fail("admit %s: %s", s.name, why)
	}
}

// get fetches a daemon endpoint.
func (d *daemon) get(path string) ([]byte, error) {
	res, err := d.http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err == nil && res.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, res.Status)
	}
	return body, err
}

// basePass submits the four corpus pipelines in order, checking each
// against its golden verdict.
func (d *daemon) basePass(res *result, corpus map[string]string) {
	var mu sync.Mutex
	for _, name := range corpusOrder {
		d.submit(res, &mu, submission{name: name, config: corpus[name], family: name})
	}
}

// pristineStore returns a summary store filled by one daemon pass over
// the base corpus. It is built once per vsdserve binary (keyed by the
// binary's hash) and copied before every daemon start, so each start
// sees the same warm store and no run inherits another's summaries.
func pristineStore(cfg config, corpus map[string]string) (string, error) {
	bin, err := os.ReadFile(cfg.serveBin)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	parent := filepath.Join(cfg.work, "admit-store")
	dir := filepath.Join(parent, fmt.Sprintf("%s-maxlen%d", hex.EncodeToString(sum[:8]), maxLen))
	if _, err := os.Stat(dir); err == nil {
		return filepath.Join(dir, "store"), nil
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(parent, "fill-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	d, err := startDaemon(cfg, filepath.Join(tmp, "store"), filepath.Join(tmp, "queue"))
	if err != nil {
		return "", err
	}
	fill := newResult()
	d.basePass(fill, corpus)
	d.stop()
	if fill.failed > 0 {
		return "", fmt.Errorf("filling the admit store: %v", fill.problems)
	}
	if err := os.RemoveAll(filepath.Join(tmp, "queue")); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil && !os.IsExist(err) {
		if _, statErr := os.Stat(dir); statErr != nil {
			return "", err
		}
	}
	return filepath.Join(dir, "store"), nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setUp copies the warm store, then starts a daemon and runs one pass
// over the base corpus; the time from start to the end of that pass is
// the set-up time.
func setUp(cfg config, res *result, corpus map[string]string, pristine, dir string) (*daemon, float64, error) {
	if err := copyDir(pristine, filepath.Join(dir, "store")); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := startDaemon(cfg, filepath.Join(dir, "store"), filepath.Join(dir, "queue"))
	if err != nil {
		return nil, 0, err
	}
	d.basePass(res, corpus)
	return d, secs(time.Since(start)), nil
}

// request is one open-loop submission's timeline.
type request struct {
	due, sent, done time.Time
}

func (r request) latency() float64 { return secs(r.done.Sub(r.due)) }
func (r request) late() float64    { return secs(r.sent.Sub(r.due)) }

// openLoop submits subs on a Poisson schedule (arrival offsets in
// seconds) through at most two connections. A request whose due time
// finds both busy waits, and its latency still counts from when it was
// due. With lanes set, each request records a client span around the
// HTTP exchange.
func openLoop(d *daemon, res *result, subs []submission, offsets []float64, lanes []*telemetry.Lane) []request {
	reqs := make([]request, len(subs))
	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		var lane *telemetry.Lane
		if lanes != nil {
			lane = lanes[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reqs[i].sent = time.Now()
				root := lane.Begin("bench", "admit.request")
				sp := lane.Begin("vsdserve", "http")
				body, err := d.post(subs[i])
				sp.End()
				record(res, &mu, subs[i], body, err)
				root.End()
				reqs[i].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(time.Duration(off * float64(time.Second)))
		time.Sleep(time.Until(due))
		reqs[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reqs
}

// schedule draws Poisson arrival offsets within dur seconds and the
// submissions sent at them.
func schedule(seed int64, gen *admitGen, dur float64) ([]submission, []float64, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var subs []submission
	var offs []float64
	for t := rng.ExpFloat64() / offeredRate; t < dur; t += rng.ExpFloat64() / offeredRate {
		s, err := gen.next()
		if err != nil {
			return nil, nil, err
		}
		subs = append(subs, s)
		offs = append(offs, t)
	}
	return subs, offs, nil
}

// closedLoop runs n clients back to back for dur seconds and returns
// each request's latency and the verdicts per second.
func closedLoop(d *daemon, res *result, gen *admitGen, n int, dur float64) ([]float64, float64, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var genErr error
	var lat []float64
	start := time.Now()
	last := start
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for secs(time.Since(start)) < dur {
				s, err := gen.next()
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				t := time.Now()
				d.submit(res, &mu, s)
				mu.Lock()
				last = time.Now()
				lat = append(lat, secs(last.Sub(t)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, float64(len(lat)) / secs(last.Sub(start)), genErr
}

// shares counts the generated repeat and designed-unsafe shares.
func shares(subs []submission) (repeat, unsafe float64) {
	for _, s := range subs {
		if s.repeat {
			repeat++
		} else if s.family == "unsafe" {
			unsafe++
		}
	}
	n := float64(len(subs))
	return repeat / n, unsafe / n
}

func admitWorkload(cfg config, runDir string) (*result, error) {
	res := newResult()
	corpus, err := readCorpus(cfg.root)
	if err != nil {
		return nil, err
	}
	pristine, err := pristineStore(cfg, corpus)
	if err != nil {
		return nil, err
	}
	res.detail["offered_rate_per_s"] = offeredRate
	res.detail["clients"] = clients
	if cfg.trace {
		return admitTraced(cfg, res, corpus, pristine, runDir)
	}

	// Set-up is repeated five times and the median reported; the last
	// daemon serves the run.
	var setups []float64
	var d *daemon
	for i := 0; i < 5; i++ {
		if d != nil {
			d.stop()
		}
		var setup float64
		d, setup, err = setUp(cfg, res, corpus, pristine, filepath.Join(runDir, fmt.Sprintf("admit-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	defer d.stop()

	// The open loop comes first: independent submitters on a seeded
	// Poisson schedule, timed from when each request was due. Its
	// latencies are reported but not gated: even with 130 requests a
	// run, the p95 of Poisson bursts over a multimodal service time
	// spread by 20-40% from seed to seed. The gated latencies come from
	// one client submitting back to back.
	gen := newAdmitGen(cfg.seed, corpus)
	subs, offs, err := schedule(cfg.seed, gen, openShare*cfg.seconds)
	if err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("the open-loop schedule is empty; raise --seconds")
	}
	reqs := openLoop(d, res, subs, offs, nil)
	lat, _, err := closedLoop(d, res, gen, 1, latencyShare*cfg.seconds)
	if err != nil {
		return nil, err
	}
	_, perS, err := closedLoop(d, res, gen, clients, (1-openShare-latencyShare)*cfg.seconds)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var open, late []float64
	for _, r := range reqs {
		open = append(open, r.latency())
		late = append(late, r.late())
	}
	repeat, unsafe := shares(subs)
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", rss, "MB")
	res.set("latency_p50_s", median(lat), "s")
	// The gated tail is p90: the one-client phase makes 150 to 250
	// requests, which leaves ten samples beyond a p95 only when the host
	// is fast.
	res.set("latency_p90_s", quantile(lat, 0.9), "s")
	res.set("throughput_per_s", perS, "1/s")
	res.detail["admit_p50_s"] = median(lat)
	res.detail["admit_p95_s"] = quantile(lat, 0.95)
	res.detail["admit_per_s"] = perS
	res.detail["one_client_requests"] = len(lat)
	res.detail["open_loop_p50_s"] = median(open)
	res.detail["open_loop_p95_s"] = quantile(open, 0.95)
	res.detail["open_loop_requests"] = len(reqs)
	res.detail["loadgen_late_p95_s"] = quantile(late, 0.95)
	res.detail["repeat_share"] = repeat
	res.detail["unsafe_share"] = unsafe
	return res, nil
}

// daemonSnapshot is the part of /metrics and /stats the per-layer
// attribution differences.
type daemonSnapshot struct {
	prom  map[string]float64 // unlabelled series
	solve map[float64]float64
	stats struct {
		Verifier verify.Stats      `json:"verifier"`
		Store    verify.StoreStats `json:"store"`
	}
}

func (d *daemon) snapshot() (*daemonSnapshot, error) {
	s := &daemonSnapshot{prom: map[string]float64{}, solve: map[float64]float64{}}
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		if le, ok := strings.CutPrefix(key, `vsd_solve_duration_seconds_bucket{le="`); ok {
			if b, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64); err == nil {
				s.solve[b] = v
			}
			continue
		}
		s.prom[key] = v
	}
	if body, err = d.get("/stats"); err != nil {
		return nil, err
	}
	return s, json.Unmarshal(body, &s.stats)
}

// solveQuantile is the q-quantile upper bucket bound of the solve
// times recorded between two snapshots (exposition buckets are
// cumulative and list only occupied bounds).
func solveQuantile(before, after *daemonSnapshot, q float64) float64 {
	cumAt := func(m map[float64]float64, le float64) float64 {
		best, c := -1.0, 0.0
		for b, v := range m {
			if b <= le && b > best {
				best, c = b, v
			}
		}
		return c
	}
	var les []float64
	for b := range after.solve {
		les = append(les, b)
	}
	sort.Float64s(les)
	total := after.prom["vsd_solve_duration_seconds_count"] - before.prom["vsd_solve_duration_seconds_count"]
	for _, le := range les {
		if after.solve[le]-cumAt(before.solve, le) >= q*total && total > 0 {
			return le
		}
	}
	return 0
}

// replayStoreLoads times, in process, the store loads the daemon's base
// pass makes: one Load per distinct element program of the corpus from
// a copy of the warm store, keyed exactly as vsdserve keys them.
func replayStoreLoads(corpus map[string]string, pristine, dir string) (*timedStore, error) {
	if err := copyDir(pristine, dir); err != nil {
		return nil, err
	}
	disk, err := verify.NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	ts := &timedStore{inner: disk}
	opts := verify.Options{MinLen: packet.MinFrame, MaxLen: maxLen}
	seen := map[string]bool{}
	for _, name := range corpusOrder {
		p, err := click.Parse(elements.Default(), corpus[name])
		if err != nil {
			return nil, err
		}
		for _, e := range p.Elements {
			key := verify.StoreKey(e.Program(), opts)
			if !seen[key.String()] {
				seen[key.String()] = true
				ts.Load(key)
			}
		}
	}
	return ts, nil
}

// tracedPass is one open-loop pass of the traced admit run.
type tracedPass struct {
	reqs          []request
	subs          []submission
	before, after *daemonSnapshot
}

// runTracedPass sets up a fresh daemon, sends it the open-loop schedule
// bracketed by /metrics and /stats snapshots, and stops it.
func runTracedPass(cfg config, res *result, corpus map[string]string, pristine, dir string, dur float64, lanes []*telemetry.Lane) (*tracedPass, error) {
	d, _, err := setUp(cfg, res, corpus, pristine, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p := &tracedPass{}
	var offs []float64
	if p.subs, offs, err = schedule(cfg.seed, newAdmitGen(cfg.seed, corpus), dur); err != nil {
		return nil, err
	}
	if len(p.subs) == 0 {
		return nil, fmt.Errorf("the open-loop schedule is empty; raise --seconds")
	}
	if p.before, err = d.snapshot(); err != nil {
		return nil, err
	}
	p.reqs = openLoop(d, res, p.subs, offs, lanes)
	if p.after, err = d.snapshot(); err != nil {
		return nil, err
	}
	return p, nil
}

// admitTraced is the traced admit run: the open-loop schedule of a
// third of the window, first against one daemon untraced, then against
// a fresh daemon with client spans on. Daemon-side layers come from the
// snapshot differences, per submission; the HTTP layer is the client's
// exchange time minus the daemon's queue wait, journal write and
// admission time.
func admitTraced(cfg config, res *result, corpus map[string]string, pristine, runDir string) (*result, error) {
	dur := cfg.seconds / 3
	untraced, err := runTracedPass(cfg, res, corpus, pristine, filepath.Join(runDir, "admit-0"), dur, nil)
	if err != nil {
		return nil, err
	}
	tr := telemetry.New(telemetry.Opts{})
	lanes := []*telemetry.Lane{tr.Lane("client-0"), tr.Lane("client-1")}
	traced, err := runTracedPass(cfg, res, corpus, pristine, filepath.Join(runDir, "admit-1"), dur, lanes)
	if err != nil {
		return nil, err
	}
	b, err := analyzeTrace(tr)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, tr); err != nil {
		return nil, err
	}

	reqs, subs, before, after := traced.reqs, traced.subs, traced.before, traced.after
	n := float64(len(reqs))
	delta := func(key string) float64 { return after.prom[key] - before.prom[key] }
	sv, sb := after.stats.Verifier, before.stats.Verifier
	admitS := delta("vsd_admission_latency_seconds_sum")
	waitS := delta("vsd_queue_wait_seconds_sum")
	journalS := delta("vsd_queue_journal_seconds_sum")

	parseStart := time.Now()
	for _, s := range subs {
		if _, err := click.Parse(elements.Default(), s.config); err != nil {
			return nil, err
		}
	}
	parseS := secs(time.Since(parseStart))
	loads, err := replayStoreLoads(corpus, pristine, filepath.Join(runDir, "replay-store"))
	if err != nil {
		return nil, err
	}

	var latB, latA, late []float64
	for i, r := range reqs {
		latB = append(latB, r.latency())
		latA = append(latA, untraced.reqs[i].latency())
		late = append(late, r.late())
	}
	vals := map[string]float64{
		"click.parse_s":           parseS / n,
		"symbex.summarize_s":      delta("vsd_summarize_duration_seconds_sum") / n,
		"symbex.engine_runs":      float64(sv.ElementsSummarized-sb.ElementsSummarized) / n,
		"symbex.segments":         float64(sv.SegmentsTotal-sb.SegmentsTotal) / n,
		"verify.composed_paths":   float64(sv.ComposedPaths-sb.ComposedPaths) / n,
		"verify.infeasible_ratio": ratio(float64(sv.ComposedInfeasible-sb.ComposedInfeasible), float64(sv.ComposedPaths-sb.ComposedPaths)),
		"smt.solve_s":             float64(sv.SolveTimes.Sum-sb.SolveTimes.Sum) / 1e9 / n,
		"smt.solve_p99_s":         solveQuantile(before, after, 0.99),
		"smt.sat_calls":           float64(sv.Solver.SatCalls-sb.Solver.SatCalls) / n,
		"smt.conflicts":           float64(sv.Solver.SatConflicts-sb.Solver.SatConflicts) / n,
		"smt.cnf_clauses":         float64(sv.Solver.CNFClauses-sb.Solver.CNFClauses) / n,
		"smt.unknowns":            float64(sv.Solver.Unknowns-sb.Solver.Unknowns) / n,
		"smt.cache_hit_ratio":     ratio(float64(sv.Solver.CacheHits-sb.Solver.CacheHits), float64(sv.Solver.Queries-sb.Solver.Queries)),
		"store.load_s":            float64(loads.loadNs.Load()) / 1e9,
		"store.hits":              float64(before.stats.Store.Hits),
		"store.saves":             float64(after.stats.Store.Saves-before.stats.Store.Saves) / n,
		"queue.wait_s":            waitS / n,
		"queue.journal_s":         journalS / n,
		"vsdserve.http_s":         (b.byCat["vsdserve"] - admitS - waitS - journalS) / n,
		"verify.admit_s":          admitS / n,
		"loadgen.late_p95_s":      quantile(late, 0.95),
		"unattributed_s":          b.byCat["bench"],
		"trace.overhead_s":        sum(latB) - sum(latA),
	}
	if cov := b.coverage(); cov < 0.95 {
		res.fail("per-layer self time covers %.1f%% of the traced wall, want at least 95%%", 100*cov)
	}
	if got := loads.hits.Load(); float64(got) != vals["store.hits"] {
		res.fail("store load replay hit %d summaries, the daemon's base pass %v", got, vals["store.hits"])
	}
	repeat, unsafe := shares(subs)
	res.detail["repeat_share"] = repeat
	res.detail["unsafe_share"] = unsafe
	res.detail["traced_requests"] = len(reqs)
	res.detail["traced_wall_s"] = b.wall
	res.detail["coverage"] = b.coverage()
	return res, res.setLayers(vals)
}
