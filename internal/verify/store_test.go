package verify

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vsd/internal/click"
	"vsd/internal/elements"
	"vsd/internal/ir"
	"vsd/internal/packet"
	"vsd/internal/symbex"
)

const storeTestPipeline = `
	src :: InfiniteSource;
	cls :: Classifier(12/0800, -);
	strip :: Strip(14);
	chk :: CheckIPHeader(NOCHECKSUM);
	ttl :: DecIPTTL;
	src -> cls; cls[0] -> strip -> chk; cls[1] -> Discard;
	chk[0] -> ttl; chk[1] -> Discard; ttl[1] -> Discard;
`

// crashReports runs CrashFreedom + BoundedInstructions with the given
// store and returns the serialized reports plus the stats.
func storeVerdict(t *testing.T, store SummaryStore, src string) (string, Stats) {
	t.Helper()
	p := parsePipeline(t, src)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	crash, err := v.CrashFreedom(p)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := v.BoundedInstructions(p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		Crash *CrashReport
		Bound *BoundReport
	}{crash, bound})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob), v.Stats()
}

// TestDiskStoreWarmRun is the headline property: a second verifier over
// a populated store performs ZERO Step-1 engine runs and reproduces the
// cold run's reports byte for byte.
func TestDiskStoreWarmRun(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats := storeVerdict(t, store, storeTestPipeline)
	if coldStats.ElementsSummarized == 0 {
		t.Fatal("cold run should hit the engine")
	}
	if coldStats.StoreHits != 0 {
		t.Errorf("cold run reported %d store hits", coldStats.StoreHits)
	}
	warm, warmStats := storeVerdict(t, store, storeTestPipeline)
	if warmStats.ElementsSummarized != 0 {
		t.Errorf("warm run performed %d engine runs, want 0", warmStats.ElementsSummarized)
	}
	if warmStats.StoreHits != coldStats.ElementsSummarized {
		t.Errorf("warm run had %d store hits, want %d", warmStats.StoreHits, coldStats.ElementsSummarized)
	}
	if warm != cold {
		t.Errorf("warm reports differ from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	// Stats describing the summaries in use must match too (suspects,
	// segment counts — composition depends on them).
	if warmStats.SegmentsTotal != coldStats.SegmentsTotal || warmStats.Suspects != coldStats.Suspects {
		t.Errorf("summary stats differ: warm %+v vs cold %+v", warmStats, coldStats)
	}
}

// TestDiskStoreCorruptionFallsBack: a truncated or bit-flipped entry is
// treated as a miss — the verifier silently re-summarizes and the
// verdict is unchanged.
func TestDiskStoreCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := storeVerdict(t, store, storeTestPipeline)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("cold run persisted nothing")
	}
	// Truncate one entry, bit-flip another, delete a third (if present).
	for i, e := range ents {
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			os.WriteFile(path, data[:len(data)/2], 0o644)
		case 1:
			data[len(data)/2] ^= 0xff
			os.WriteFile(path, data, 0o644)
		default:
			os.Remove(path)
		}
	}
	warm, warmStats := storeVerdict(t, store, storeTestPipeline)
	if warm != cold {
		t.Errorf("corrupted store changed the verdict:\ncold: %s\nwarm: %s", cold, warm)
	}
	if warmStats.ElementsSummarized == 0 {
		t.Error("corrupted entries should force re-summarization")
	}
	if st := store.Stats(); st.Corrupt == 0 {
		t.Errorf("store did not report corrupt entries: %+v", st)
	}
}

// TestDiskStoreRejectsFingerprintMismatch: renaming an artifact to
// another program's key must not let it load (content addressing).
func TestDiskStoreRejectsFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, storeTestPipeline)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	if _, err := v.CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 {
		t.Fatalf("want at least 2 artifacts, got %d", len(ents))
	}
	// Swap one artifact's name for another's key.
	a := filepath.Join(dir, ents[0].Name())
	b := filepath.Join(dir, ents[1].Name())
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, data, 0o644); err != nil {
		t.Fatal(err)
	}
	keyB, err := ir.ParseFingerprint(ents[1].Name()[:64])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(keyB); ok {
		t.Error("store loaded an artifact whose embedded fingerprint differs from its key")
	}
	if st := store.Stats(); st.Corrupt == 0 {
		t.Error("mismatch not counted as corrupt")
	}
}

// TestStoreKeyBindsLengthBounds is the cross-configuration soundness
// regression: the engine assumes the [MinLen,MaxLen] bounds during
// pruning without recording them in segment conditions, so a summary
// computed under one range must NEVER serve a verifier using another.
// UnsafeReader(60) is the discriminating workload: under [64,128] its
// unguarded read is always in bounds (pipeline verifies), under
// [14,48] it always crashes.
func TestStoreKeyBindsLengthBounds(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := `s :: InfiniteSource; s -> UnsafeReader(60) -> Discard;`
	long := New(Options{MinLen: 64, MaxLen: 128, Store: store})
	repLong, err := long.CrashFreedom(parsePipeline(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if !repLong.Verified {
		t.Fatal("setup: [64,128] should verify (read always in bounds)")
	}
	short := New(Options{MinLen: 14, MaxLen: 48, Store: store})
	repShort, err := short.CrashFreedom(parsePipeline(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if repShort.Verified {
		t.Fatal("summary computed under [64,128] was reused at [14,48] — unsound store key")
	}
	if short.Stats().StoreHits != 0 {
		t.Error("differently-bounded verifier hit the other configuration's artifacts")
	}
	// Same bounds DO share: a third verifier at [64,128] is all hits.
	warm := New(Options{MinLen: 64, MaxLen: 128, Store: store})
	if _, err := warm.CrashFreedom(parsePipeline(t, src)); err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.ElementsSummarized != 0 || st.StoreHits == 0 {
		t.Errorf("equal configuration did not reuse artifacts: %+v", st)
	}
	// Zero bounds normalize to the defaults, exactly as New applies them.
	prog := parsePipeline(t, src).Elements[1].Program()
	if StoreKey(prog, Options{}) != StoreKey(prog, Options{MinLen: packet.MinFrame, MaxLen: packet.MaxFrame}) {
		t.Error("zero options and explicit defaults give different store keys")
	}
	if StoreKey(prog, Options{}) == StoreKey(prog, Options{MaxLen: 48}) {
		t.Error("a changed MaxLen kept the default store key")
	}
}

// TestMemStoreSharesAcrossVerifiers: the in-memory implementation gives
// cross-Verifier reuse within a process.
func TestMemStoreSharesAcrossVerifiers(t *testing.T) {
	store := NewMemStore()
	_, coldStats := storeVerdict(t, store, storeTestPipeline)
	_, warmStats := storeVerdict(t, store, storeTestPipeline)
	if warmStats.ElementsSummarized != 0 {
		t.Errorf("warm run over MemStore ran the engine %d times", warmStats.ElementsSummarized)
	}
	if warmStats.StoreHits != coldStats.ElementsSummarized {
		t.Errorf("store hits %d, want %d", warmStats.StoreHits, coldStats.ElementsSummarized)
	}
	if st := store.Stats(); st.Saves == 0 || st.Hits == 0 {
		t.Errorf("unexpected MemStore stats: %+v", st)
	}
}

// TestStoreRoundTripSegmentsUsable loads segments through the disk
// store directly and checks they are the interned equivalents of the
// originals.
func TestStoreRoundTripSegmentsUsable(t *testing.T) {
	store, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, `src :: InfiniteSource; src -> c :: Counter; c -> Discard;`)
	opts := Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store}
	v := New(opts)
	var orig [][]*symbex.Segment
	for _, e := range p.Elements {
		segs, err := v.Summarize(e)
		if err != nil {
			t.Fatal(err)
		}
		orig = append(orig, segs)
	}
	for i, e := range p.Elements {
		sum, ok := store.Load(StoreKey(e.Program(), opts))
		if !ok {
			t.Fatalf("element %d not persisted", i)
		}
		if len(sum.Segments) != len(orig[i]) {
			t.Fatalf("element %d: %d segments, want %d", i, len(sum.Segments), len(orig[i]))
		}
		for j, sg := range sum.Segments {
			want := orig[i][j]
			if sg.Pkt != want.Pkt {
				t.Errorf("element %d seg %d packet array not interned to original", i, j)
			}
			if len(sg.Cond) != len(want.Cond) {
				t.Fatalf("element %d seg %d cond count", i, j)
			}
			for k := range sg.Cond {
				if sg.Cond[k] != want.Cond[k] {
					t.Errorf("element %d seg %d cond %d not interned to original", i, j, k)
				}
			}
		}
	}
}

// readsPipeline builds a pipeline whose single crash path depends on n
// state reads all returning a value nothing ever writes: the bad-value
// refinement discharges it — but only if its fixed cap lets it
// enumerate every read.
func readsPipeline(t *testing.T, n int) *click.Pipeline {
	t.Helper()
	b := ir.NewBuilder("Reads", 1, 1)
	b.DeclareState(ir.StateDecl{Name: "st", KeyW: 32, ValW: 32, Default: 0})
	var all ir.Reg
	for i := 0; i < n; i++ {
		hit := b.BinC(ir.Eq, b.StateRead("st", b.ConstU(32, uint64(i))), 1)
		if i == 0 {
			all = hit
		} else {
			all = b.Bin(ir.And, all, hit)
		}
	}
	b.Assert(b.Not(all), "every read returned the unwritable value")
	b.Emit(0)
	return oneElementPipeline(t, "probe", b.MustBuild())
}

// oneElementPipeline wires prog behind an InfiniteSource, leaving its
// outputs as the pipeline's egress.
func oneElementPipeline(t *testing.T, name string, prog *ir.Program) *click.Pipeline {
	t.Helper()
	srcProg, err := elements.InfiniteSource("")
	if err != nil {
		t.Fatal(err)
	}
	p, err := click.Build([]*click.Instance{
		click.NewInstance("src", "InfiniteSource", "", srcProg),
		click.NewInstance(name, prog.Name, "", prog),
	}, []click.Connection{{From: 0, FromPort: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRefinedReadsCap pins the bad-value search's fixed cap of two
// reads: a crash path needing two unwritable reads is discharged, and
// one needing three stays suspect (sound over-approximation) and is
// reported in Stats.RefinementTruncated.
func TestRefinedReadsCap(t *testing.T) {
	t.Run("two-reads-discharged", func(t *testing.T) {
		v := New(Options{MinLen: packet.MinFrame, MaxLen: 48})
		rep, err := v.CrashFreedom(readsPipeline(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified || rep.Discharged == 0 {
			t.Fatalf("verified=%v discharged=%d, want discharged proof", rep.Verified, rep.Discharged)
		}
		if got := v.Stats().RefinementTruncated; got != 0 {
			t.Errorf("truncated %d paths, want 0", got)
		}
	})
	t.Run("three-reads-truncated", func(t *testing.T) {
		v := New(Options{MinLen: packet.MinFrame, MaxLen: 48})
		rep, err := v.CrashFreedom(readsPipeline(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verified {
			t.Error("a three-read path must stay suspect past the cap")
		}
		if got := v.Stats().RefinementTruncated; got == 0 {
			t.Error("the truncated path was not reported")
		}
	})
}

// TestDiskStoreTornWriteDegradesToMiss covers every torn-write shape a
// crashed writer (or the fault injector) can leave at an entry's path:
// empty file, partial magic, magic-only, header-without-payload, and a
// valid entry cut mid-checksum. Each must degrade to a miss — never a
// panic, never a summary that was not stored under the key.
func TestDiskStoreTornWriteDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := parsePipeline(t, storeTestPipeline)
	v := New(Options{MinLen: packet.MinFrame, MaxLen: 48, Store: store})
	if _, err := v.CrashFreedom(p); err != nil {
		t.Fatal(err)
	}
	key := StoreKey(p.Elements[0].Program(), Options{MinLen: packet.MinFrame, MaxLen: 48})
	path := store.Path(key)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("expected an artifact at Path(%s): %v", key, err)
	}
	torn := [][]byte{
		{},
		[]byte(diskMagic[:4]),
		[]byte(diskMagic),
		whole[:len(diskMagic)+len(key)],
		whole[:len(whole)-7],
	}
	for i, frag := range torn {
		if err := os.WriteFile(path, frag, 0o644); err != nil {
			t.Fatal(err)
		}
		if sum, ok := store.Load(key); ok || sum != nil {
			t.Fatalf("torn shape %d (%d bytes) loaded as a hit", i, len(frag))
		}
	}
	// All five shapes are rejections, not absences.
	if st := store.Stats(); st.Corrupt < int64(len(torn)) {
		t.Fatalf("torn writes not counted as corrupt: %+v", st)
	}
	// Restoring the original bytes restores the hit.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key); !ok {
		t.Fatal("restored entry no longer loads")
	}
}
