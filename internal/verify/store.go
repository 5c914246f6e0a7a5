package verify

// SummaryStore: durable, content-addressed Step-1 artifacts
// (DESIGN.md §7). Step 1 — the expensive symbolic execution of each
// element class — used to live only in a per-Verifier in-memory map and
// die with the process. A SummaryStore makes summaries outlive it:
// artifacts are keyed by StoreKey — the ir.Program content fingerprint
// bound to the Step-1 context (packet-length bounds, loop mode) the
// summary was computed under — so a store entry is valid for exactly
// the configurations whose summaries it holds, no matter which
// registry, class name, or process produced it.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vsd/internal/ir"
	"vsd/internal/symbex"
)

// SummaryStore persists Step-1 summaries across Verifier instances (and,
// for the disk implementation, across processes). Keys are StoreKey
// values. Load returns ok=false on any miss — absent, stale, or corrupt
// entries alike — in which case the verifier falls back to
// re-summarizing; Load must never return a summary that was not stored
// under the same key. Save failures are not fatal to verification and
// are reported via Stats. Implementations must be safe for concurrent
// use.
type SummaryStore interface {
	Load(fp ir.Fingerprint) (*symbex.Summary, bool)
	Save(fp ir.Fingerprint, s *symbex.Summary)
}

// StoreKey derives the summary-store key for one program under the
// given options: the program's content fingerprint mixed with the
// Step-1 context the summary depends on. The packet-length bounds are
// part of the key because the engine assumes them during pruning
// without recording them in segment conditions — a summary computed
// under [64,128] legitimately omits crash segments that only packets
// shorter than 64 bytes can reach, so reusing it at [14,48] would be
// unsound. The loop mode likewise changes which segments a summary
// contains. Zero option values normalize exactly as in New, so equal
// effective configurations share keys.
func StoreKey(prog *ir.Program, opts Options) ir.Fingerprint {
	opts = opts.normalized()
	h := ir.NewHasher("vsd/sumkey/v2")
	h.Fingerprint(prog.Fingerprint())
	h.U64(opts.MinLen)
	h.U64(opts.MaxLen)
	h.U64(uint64(opts.Symbex.LoopMode))
	return h.Sum()
}

// StoreStats counts store traffic.
type StoreStats struct {
	Hits      int64 // Load calls that returned a summary
	Misses    int64 // Load calls with no entry
	Corrupt   int64 // entries rejected (bad magic/fingerprint/decode)
	Saves     int64 // successful Save calls
	SaveFails int64 // Save calls that could not persist
}

// MemStore is the in-memory SummaryStore: a map from fingerprint to
// summary. It is what the verifier's once-map cache has always been,
// behind the store interface — useful for sharing summaries across
// Verifier instances within one process and as the reference
// implementation in tests.
type MemStore struct {
	mu    sync.Mutex
	m     map[ir.Fingerprint]*symbex.Summary
	stats StoreStats
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[ir.Fingerprint]*symbex.Summary{}} }

// Load implements SummaryStore.
func (s *MemStore) Load(fp ir.Fingerprint) (*symbex.Summary, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, ok := s.m[fp]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return sum, ok
}

// Save implements SummaryStore.
func (s *MemStore) Save(fp ir.Fingerprint, sum *symbex.Summary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[fp] = sum
	s.stats.Saves++
}

// Stats returns a snapshot of the store counters.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskStore is the persistent, content-addressed SummaryStore: one file
// per summary key (StoreKey: program fingerprint + Step-1 context)
// under a directory, in the EncodeSummary format framed by a header
// that repeats the key and a content checksum. Entries that fail any
// check — wrong magic, wrong embedded key (a renamed or hand-edited
// file), wrong checksum, or a codec error — are treated as misses, so a
// corrupted store degrades to re-summarizing, never to wrong verdicts.
// Writes go through a temporary file plus rename, so concurrent readers
// see only complete entries.
type DiskStore struct {
	dir string

	hits      atomic.Int64
	misses    atomic.Int64
	corrupt   atomic.Int64
	saves     atomic.Int64
	saveFails atomic.Int64
}

// diskMagic frames store files; the payload carries its own summary
// format version.
const diskMagic = "VSDSTORE1\n"

// summaryExt is the store-file suffix.
const summaryExt = ".vsum"

// NewDiskStore opens (creating if needed) the store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("verify: opening summary store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(fp ir.Fingerprint) string {
	return filepath.Join(s.dir, fp.String()+summaryExt)
}

// Path returns the file a given key is (or would be) stored at. It
// exists for the fault-injection harness and for operational tooling;
// writing to the path directly bypasses the store's durability
// protocol.
func (s *DiskStore) Path(fp ir.Fingerprint) string { return s.path(fp) }

// Load implements SummaryStore.
func (s *DiskStore) Load(fp ir.Fingerprint) (*symbex.Summary, bool) {
	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	sum, err := decodeStoreFile(fp, data)
	if err != nil {
		s.corrupt.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return sum, true
}

// decodeStoreFile validates the framing and decodes the payload.
func decodeStoreFile(fp ir.Fingerprint, data []byte) (*symbex.Summary, error) {
	if len(data) < len(diskMagic)+len(fp)+sha256.Size {
		return nil, fmt.Errorf("verify: store entry truncated (%d bytes)", len(data))
	}
	if string(data[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("verify: store entry has bad magic")
	}
	data = data[len(diskMagic):]
	var got ir.Fingerprint
	copy(got[:], data)
	if got != fp {
		return nil, fmt.Errorf("verify: store entry fingerprint mismatch: %s under key %s", got, fp)
	}
	data = data[len(fp):]
	payload, check := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(check) {
		return nil, fmt.Errorf("verify: store entry checksum mismatch")
	}
	return symbex.DecodeSummary(payload)
}

// Save implements SummaryStore.
func (s *DiskStore) Save(fp ir.Fingerprint, sum *symbex.Summary) {
	payload := symbex.EncodeSummary(sum)
	buf := make([]byte, 0, len(diskMagic)+len(fp)+len(payload)+sha256.Size)
	buf = append(buf, diskMagic...)
	buf = append(buf, fp[:]...)
	buf = append(buf, payload...)
	check := sha256.Sum256(payload)
	buf = append(buf, check[:]...)
	tmp, err := os.CreateTemp(s.dir, "tmp-*"+summaryExt)
	if err != nil {
		s.saveFails.Add(1)
		return
	}
	// Write, fsync, close, rename, fsync the directory: the entry must
	// be durable before it becomes visible under its key, and the rename
	// must itself survive a crash (a torn entry would be caught by the
	// checksum and degrade to a miss, but a journaled service should not
	// re-summarize after every power cut either).
	_, werr := tmp.Write(buf)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.saveFails.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), s.path(fp)); err != nil {
		os.Remove(tmp.Name())
		s.saveFails.Add(1)
		return
	}
	syncDir(s.dir)
	s.saves.Add(1)
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Best-effort: some filesystems refuse directory fsync; the checksum
// framing still protects readers.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Stats returns a snapshot of the store counters.
func (s *DiskStore) Stats() StoreStats {
	return StoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Saves:     s.saves.Load(),
		SaveFails: s.saveFails.Load(),
	}
}

// Len reports the number of complete entries currently in the store.
func (s *DiskStore) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) == summaryExt && len(name) == 64+len(summaryExt) {
			n++
		}
	}
	return n, nil
}
