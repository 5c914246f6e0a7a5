package main

// forward: in-process batched forwarding on the compiled dataplane, no
// real link. Three mixes: the checksum-validating router on valid IPv4
// at 64 and at 1514 bytes, and the NAT pipeline on workload.Mix
// traffic whose sources outnumber the 4096-entry natmap.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vsd/internal/click"
	"vsd/internal/dataplane"
	"vsd/internal/dataplane/compile"
	"vsd/internal/elements"
	"vsd/internal/experiments"
	"vsd/internal/packet"
	"vsd/internal/telemetry"
	"vsd/internal/workload"
)

const (
	// natHosts per source prefix: three prefixes give 3×8192 possible
	// sources against the IPRewriter's 4096-entry natmap.
	natHosts = 8192
	// natmapCapacity is IPRewriter's state capacity (elements/state.go).
	natmapCapacity = 4096
	// compareSample is the packets per mix the untimed three-tier
	// differential check runs on.
	compareSample = 1024
)

// fwdMix is one traffic mix bound to the pipeline that forwards it.
type fwdMix struct {
	name string
	pipe *click.Pipeline
	pkts []*packet.Buffer
	// allEmitted: every packet of the mix is valid and must leave the
	// pipeline (the router mixes).
	allEmitted bool
}

// routerFrames builds n valid Ethernet+IPv4/UDP frames of exactly size
// bytes, with seeded addresses in the router's three route prefixes and
// TTLs that survive DecIPTTL.
func routerFrames(rng *rand.Rand, n, size int) ([]*packet.Buffer, error) {
	prefixes := []uint32{packet.IP4(10, 0, 0, 0), packet.IP4(192, 168, 0, 0), packet.IP4(8, 8, 0, 0)}
	addr := func() uint32 { return prefixes[rng.Intn(len(prefixes))] | uint32(1+rng.Intn(65534)) }
	out := make([]*packet.Buffer, n)
	for i := range out {
		payload := make([]byte, size-14-20)
		rng.Read(payload)
		buf, err := packet.BuildIPv4(packet.IPv4Spec{
			SrcIP: addr(), DstIP: addr(), TTL: uint8(2 + rng.Intn(254)),
			Protocol: packet.ProtoUDP, Payload: payload,
		})
		if err != nil {
			return nil, err
		}
		if len(buf.Data) != size {
			return nil, fmt.Errorf("built a %d-byte frame, want %d", len(buf.Data), size)
		}
		out[i] = buf
	}
	return out, nil
}

func forwardMixes(cfg config) ([]*fwdMix, error) {
	router, err := click.Parse(elements.Default(), experiments.IPRouterConfig(true))
	if err != nil {
		return nil, err
	}
	corpus, err := readCorpus(cfg.root)
	if err != nil {
		return nil, err
	}
	nat, err := click.Parse(elements.Default(), corpus["nat"])
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	small, err := routerFrames(rng, 4096, 64)
	if err != nil {
		return nil, err
	}
	large, err := routerFrames(rng, 2048, 1514)
	if err != nil {
		return nil, err
	}
	mix := workload.New(workload.Spec{Seed: cfg.seed, Hosts: natHosts}).Mix(8192)
	return []*fwdMix{
		{name: "64", pipe: router, pkts: small, allEmitted: true},
		{name: "1514", pipe: router, pkts: large, allEmitted: true},
		{name: "mix", pipe: nat, pkts: mix},
	}, nil
}

// distinctSources counts the IPv4 source addresses in a trace.
func distinctSources(pkts []*packet.Buffer) int {
	seen := map[uint32]bool{}
	for _, b := range pkts {
		if ip, err := packet.IPv4At(b.Data, 14); err == nil {
			seen[ip.Src()] = true
		}
	}
	return len(seen)
}

// compareMix runs the untimed correctness gate on a sample: the
// three-tier dataplane.Compare must find no divergence, and a fresh
// compiled runner's RunTrace must reach the interpreter's disposition
// totals.
func compareMix(res *result, m *fwdMix) {
	sample := m.pkts[:min(compareSample, len(m.pkts))]
	res.attempted++
	rep, err := dataplane.Compare(m.pipe, sample)
	if err != nil {
		res.fail("forward %s: %v", m.name, err)
		return
	}
	c, err := dataplane.NewCompiled(m.pipe)
	if err != nil {
		res.fail("forward %s: %v", m.name, err)
		return
	}
	s := c.RunTrace(sample)
	if s.Emitted != rep.Emitted || s.Dropped != rep.Dropped || s.Crashed != rep.Crashed {
		res.fail("forward %s: RunTrace emitted/dropped/crashed %d/%d/%d, interpreter %d/%d/%d",
			m.name, s.Emitted, s.Dropped, s.Crashed, rep.Emitted, rep.Dropped, rep.Crashed)
	}
}

// checkPass validates one timed pass: the pipelines are certified
// crash-free, so no packet may crash, and every valid router packet
// must be emitted.
func checkPass(res *result, m *fwdMix, s dataplane.Summary) {
	res.attempted++
	if s.Crashed > 0 || (m.allEmitted && s.Emitted != s.Packets) {
		res.fail("forward %s: pass of %d packets emitted %d, crashed %d", m.name, s.Packets, s.Emitted, s.Crashed)
	}
}

// fwdStats accumulates timed batched passes.
type fwdStats struct {
	perPkt  []float64 // per pass: seconds per packet
	busy    map[string]float64
	packets map[string]int64
	steps   int64
	dropped map[string]int64
}

func newFwdStats() *fwdStats {
	return &fwdStats{busy: map[string]float64{}, packets: map[string]int64{}, dropped: map[string]int64{}}
}

// runPasses forwards each mix's working set once per round, for dur
// seconds or, when rounds > 0, for exactly that many rounds. A non-nil
// lane records one span per pass.
func runPasses(res *result, mixes []*fwdMix, runners []*dataplane.Compiled, dur float64, rounds int, lane *telemetry.Lane) (*fwdStats, int) {
	st := newFwdStats()
	start := time.Now()
	n := 0
	for ; rounds > 0 && n < rounds || rounds == 0 && secs(time.Since(start)) < dur; n++ {
		for i, m := range mixes {
			sp := lane.Begin("dataplane", "batch:"+m.name)
			t := time.Now()
			s := runners[i].RunTrace(m.pkts)
			d := secs(time.Since(t))
			sp.End()
			checkPass(res, m, s)
			st.perPkt = append(st.perPkt, d/float64(s.Packets))
			st.busy[m.name] += d
			st.packets[m.name] += s.Packets
			st.dropped[m.name] += s.Dropped + s.Crashed
			st.steps += s.Steps
		}
	}
	return st, n
}

// newRunners compiles one runner per mix and warms it with one pass,
// so pools and NAT state are at steady state before timing.
func newRunners(mixes []*fwdMix) ([]*dataplane.Compiled, error) {
	var rs []*dataplane.Compiled
	for _, m := range mixes {
		c, err := dataplane.NewCompiled(m.pipe)
		if err != nil {
			return nil, err
		}
		c.RunTrace(m.pkts)
		rs = append(rs, c)
	}
	return rs, nil
}

func forwardWorkload(cfg config) (*result, error) {
	res := newResult()
	mixes, err := forwardMixes(cfg)
	if err != nil {
		return nil, err
	}
	for _, m := range mixes {
		compareMix(res, m)
	}
	sources := distinctSources(mixes[2].pkts)
	res.detail["mix_distinct_sources"] = sources
	res.detail["natmap_capacity"] = natmapCapacity
	if sources <= natmapCapacity {
		return nil, fmt.Errorf("mix has %d sources, want more than the natmap's %d", sources, natmapCapacity)
	}
	if cfg.trace {
		return forwardTraced(cfg, res, mixes)
	}

	// Set-up is compiling both pipelines: a fraction of a millisecond,
	// so it is repeated and the median taken.
	setups, err := timeSetups(func() error {
		for _, p := range []*click.Pipeline{mixes[0].pipe, mixes[2].pipe} {
			if _, err := dataplane.NewCompiled(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	runners, err := newRunners(mixes)
	if err != nil {
		return nil, err
	}
	st, _ := runPasses(res, mixes, runners, cfg.seconds, 0, nil)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	var pkts int64
	busy := 0.0
	for _, m := range mixes {
		pkts += st.packets[m.name]
		busy += st.busy[m.name]
		res.detail["fwd_"+m.name+"_mpps"] = float64(st.packets[m.name]) / st.busy[m.name] / 1e6
	}
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", rss, "MB")
	res.set("latency_p50_s", median(st.perPkt), "s")
	res.set("latency_p90_s", quantile(st.perPkt, 0.9), "s")
	res.set("throughput_per_s", float64(pkts)/busy, "1/s")
	res.detail["exit_ratio_mix"] = ratio(float64(st.dropped["mix"]), float64(st.packets["mix"]))
	res.detail["passes"] = len(st.perPkt)
	return res, nil
}

// forwardTraced is the traced forward run: batched passes for half the
// window untraced, the same number of passes on fresh runners with
// opcode profiling and one span per pass, then spans around the
// unbatched Process tier and the frame copy.
func forwardTraced(cfg config, res *result, mixes []*fwdMix) (*result, error) {
	runners, err := newRunners(mixes)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced, rounds := runPasses(res, mixes, runners, cfg.seconds/2, 0, nil)
	runtime.ReadMemStats(&m1)
	var untracedBusy float64
	var untracedPkts int64
	for _, m := range mixes {
		untracedBusy += untraced.busy[m.name]
		untracedPkts += untraced.packets[m.name]
	}

	if runners, err = newRunners(mixes); err != nil {
		return nil, err
	}
	for _, r := range runners {
		r.EnableOpProfile()
	}
	tr := telemetry.New(telemetry.Opts{})
	lane := tr.Lane("perfbench")
	root := lane.Begin("bench", "forward")
	traced, _ := runPasses(res, mixes, runners, 0, rounds, lane)

	// Unbatched compiled tier: one scratch buffer, Process per packet.
	var processNs float64
	var processPkts int
	scratch := packet.NewBuffer(nil)
	for _, m := range mixes {
		c, err := dataplane.NewCompiled(m.pipe)
		if err != nil {
			return nil, err
		}
		sp := lane.Begin("compile", "process:"+m.name)
		t := time.Now()
		for _, b := range m.pkts {
			scratch.CopyFrom(b)
			c.Process(scratch)
		}
		processNs += float64(time.Since(t).Nanoseconds())
		sp.End()
		processPkts += len(m.pkts)
	}

	// The batched tier's only byte copy: packets into pooled frames.
	large := mixes[1]
	fr := compile.NewFrame(runners[1].Layout().NumSlots())
	sp := lane.Begin("dataplane", "copy:1514")
	t := time.Now()
	for _, b := range large.pkts {
		fr.ResetFrom(runners[1].Layout(), b)
	}
	copyNs := float64(time.Since(t).Nanoseconds())
	sp.End()
	root.End()

	b, err := analyzeTrace(tr)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, tr); err != nil {
		return nil, err
	}
	var tracedBusy float64
	var tracedPkts int64
	var dispatches int64
	for i, m := range mixes {
		tracedBusy += traced.busy[m.name]
		tracedPkts += traced.packets[m.name]
		dispatches += runners[i].OpProfile().Dispatches()
	}
	vals := map[string]float64{
		"compile.process_ns_per_pkt": processNs / float64(processPkts),
		"compile.steps_per_pkt":      float64(untraced.steps) / float64(untracedPkts),
		"compile.dispatches_per_pkt": float64(dispatches) / float64(tracedPkts),
		"compile.allocs_per_pkt":     float64(m1.Mallocs-m0.Mallocs) / float64(untracedPkts),
		"dataplane.copy_ns_per_pkt":  copyNs / float64(len(large.pkts)),
		"dataplane.exit_ratio":       ratio(float64(traced.dropped["mix"]), float64(traced.packets["mix"])),
		"unattributed_s":             b.byCat["bench"],
		"trace.overhead_s":           tracedBusy - untracedBusy,
	}
	if cov := b.coverage(); cov < 0.95 {
		res.fail("per-layer self time covers %.1f%% of the traced wall, want at least 95%%", 100*cov)
	}
	res.detail["exit_ratio_mix"] = vals["dataplane.exit_ratio"]
	res.detail["rounds"] = rounds
	res.detail["traced_wall_s"] = b.wall
	res.detail["coverage"] = b.coverage()
	return res, res.setLayers(vals)
}
