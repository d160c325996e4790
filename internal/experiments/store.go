package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// traceStore is the on-disk half of ContactCache: a sharded directory of
// persisted contact traces keyed by scenario fingerprint.
//
// Layout. A flat directory degrades once fleets reach thousands of
// fingerprints (directory scans, lock contention, tooling that chokes on
// huge listings), so traces live under a 2-level fan-out keyed by the
// first two hex characters of the fingerprint:
//
//	<dir>/ab/abcdef0123456789.contactsb
//	<dir>/index.json
//
// index.json fronts the shards: one entry per fingerprint with the trace's
// size and last-use time, which the size-bounded GC orders its evictions
// by. The index is advisory — the shard files are the source of truth, a
// missing or stale index is rebuilt from them, and a fingerprint absent
// from the index falls back to the file's mtime.
type traceStore struct {
	dir string

	// now supplies the unix-seconds clock behind last-use stamps, so GC
	// eviction-order tests can drive it directly instead of skewing file
	// mtimes against the wall clock.
	now func() int64

	// repaired, when non-nil, learns of each index.json record the loader
	// had to fix against the shard files (see healLocked): cause describes
	// the disagreement, key is the fingerprint. The cache wires this to its
	// Warn hook with per-fingerprint dedup.
	repaired func(key, cause string)

	mu     sync.Mutex
	idx    map[string]indexEntry
	healed map[string]string // adopted key → cause, reported on first serve
	loaded bool
}

// indexEntry is one index.json record.
type indexEntry struct {
	Size int64 `json:"size"`
	Used int64 `json:"used"` // unix seconds of last load or store
}

const indexFile = "index.json"

// lockFile names the advisory flock file: one per shard directory
// (serializing trace installs against GC evictions of that shard) and one
// at the store root (serializing index.json rewrites). The dot prefix
// keeps it out of the trace glob.
const lockFile = ".lock"

// indexDoc is the serialized form of the index.
type indexDoc struct {
	Version int                   `json:"version"`
	Entries map[string]indexEntry `json:"entries"`
}

func newTraceStore(dir string) *traceStore {
	return &traceStore{dir: dir, now: func() int64 { return time.Now().Unix() }}
}

// shardPath returns the sharded location of key's binary trace.
func (s *traceStore) shardPath(key string) string {
	return filepath.Join(s.dir, shardOf(key), key+".contactsb")
}

// shardOf returns the fan-out directory for a fingerprint.
func shardOf(key string) string {
	if len(key) < 2 {
		return "_" // defensive: fingerprints are 16 hex chars
	}
	return key[:2]
}

// put persists one encoded trace into its shard via a temp file and
// rename, so concurrent processes sharing the directory never observe a
// torn file. Errors are swallowed by the caller's contract: persistence is
// an optimization and must never fail a run that already holds a valid
// recording.
func (s *traceStore) put(key string, data []byte) (path string, ok bool) {
	path = s.shardPath(key)
	// Cross-process exclusion against a concurrent GC of this shard: the
	// eviction pass must not remove the trace between our rename and the
	// index touch, which would resurrect it in the index as a phantom.
	unlock := s.lockShard(key)
	defer unlock()
	if !writeAtomic(filepath.Dir(path), path, data) {
		return path, false
	}
	s.touch(key, int64(len(data)))
	s.mu.Lock()
	// This process just wrote the trace; a heal marker from the first
	// index load (which can observe put's own rename before the touch
	// lands) would mis-report a later disk serve as a crash repair.
	delete(s.healed, key)
	s.mu.Unlock()
	s.flush()
	return path, true
}

// touch records a use of key in the index (in memory; flush persists).
func (s *traceStore) touch(key string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadLocked()
	s.idx[key] = indexEntry{Size: size, Used: s.now()}
}

// loadLocked reads index.json once — a missing or unparsable index starts
// empty (the shard files are the source of truth) — then reconciles it
// against those shard files, because a crash can leave the two
// disagreeing (see healLocked).
func (s *traceStore) loadLocked() {
	if s.loaded {
		return
	}
	s.loaded = true
	s.idx = make(map[string]indexEntry)
	data, err := os.ReadFile(filepath.Join(s.dir, indexFile))
	if err == nil {
		var doc indexDoc
		if json.Unmarshal(data, &doc) == nil && doc.Entries != nil {
			s.idx = doc.Entries
		}
	}
	s.healLocked()
}

// healLocked reconciles the just-loaded index with the shard files. put
// installs the trace first and flushes the index second, so a crash in
// the gap leaves a shard file the index has never heard of — and the GC
// removes files first and flushes second, so the same crash inverted
// leaves an index entry whose file is gone. Either staleness would make
// the store mis-report: a phantom entry inflates the GC's size
// accounting and order, and an unlisted shard ages by an mtime the next
// process may not preserve. The shard file always wins: unlisted traces
// are adopted with their file size and mtime, entries for vanished files
// are dropped. Adoptions are stashed in healed and reported only when the
// trace is actually served (noteServed): a warning then means exactly "a
// would-have-been miss was repaired from the shard", while files this
// process wrote just before its first index load, or traces dropped into
// a shared directory out of band, are adopted without noise. Phantom
// entries have no serve event to wait for and report immediately. The
// healed index persists on the next flush — flush takes s.mu, so
// flushing from here would deadlock.
func (s *traceStore) healLocked() {
	files, err := filepath.Glob(filepath.Join(s.dir, "??", "*.contactsb"))
	if err != nil {
		return
	}
	onDisk := make(map[string]bool, len(files))
	for _, f := range files {
		key := trimExt(filepath.Base(f))
		onDisk[key] = true
		if _, ok := s.idx[key]; ok {
			continue
		}
		fi, statErr := os.Stat(f)
		if statErr != nil || fi.IsDir() {
			continue
		}
		s.idx[key] = indexEntry{Size: fi.Size(), Used: fi.ModTime().Unix()}
		if s.healed == nil {
			s.healed = make(map[string]string)
		}
		s.healed[key] = "had no entry"
	}
	for key := range s.idx {
		if onDisk[key] {
			continue
		}
		delete(s.idx, key)
		if s.repaired != nil {
			s.repaired(key, "listed a vanished trace")
		}
	}
}

// noteServed records that key's persisted trace was just served. If the
// index had lost track of it (a crash between the shard rename and the
// index flush) the repair is reported now, once: the cache was about to
// mis-report a miss and re-simulate, and the shard stat saved the pass.
func (s *traceStore) noteServed(key string) {
	s.mu.Lock()
	cause, ok := s.healed[key]
	if ok {
		delete(s.healed, key)
	}
	rep := s.repaired
	s.mu.Unlock()
	if ok && rep != nil {
		rep(key, cause)
	}
}

// lockShard takes the advisory cross-process lock of key's shard
// directory. Writers (put) and the GC's evictions hold it around their
// file mutations; readers never need it — every write is temp+rename
// atomic, the lock only orders writers against removals.
func (s *traceStore) lockShard(key string) (unlock func()) {
	return lockExclusive(filepath.Join(s.dir, shardOf(key), lockFile))
}

// flush writes the index atomically, under the store-root flock so two
// processes sharing the directory do not interleave their rewrites
// (last-writer-wins on content is fine — the index is advisory and
// healLocked re-derives anything a lost update dropped).
func (s *traceStore) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadLocked()
	doc := indexDoc{Version: 1, Entries: s.idx}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	unlock := lockExclusive(filepath.Join(s.dir, lockFile))
	defer unlock()
	writeAtomic(s.dir, filepath.Join(s.dir, indexFile), append(data, '\n'))
}

// storedTrace describes one shard file for GC.
type storedTrace struct {
	key  string
	path string
	size int64
	used int64
}

// list enumerates every sharded trace with its LRU ordering key.
func (s *traceStore) list() ([]storedTrace, error) {
	files, err := filepath.Glob(filepath.Join(s.dir, "??", "*.contactsb"))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.loadLocked()
	idx := make(map[string]indexEntry, len(s.idx))
	for k, e := range s.idx {
		idx[k] = e
	}
	s.mu.Unlock()

	var out []storedTrace
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil || fi.IsDir() {
			continue
		}
		key := trimExt(filepath.Base(f))
		st := storedTrace{key: key, path: f, size: fi.Size(), used: fi.ModTime().Unix()}
		if e, ok := idx[key]; ok && e.Used > 0 {
			st.used = e.Used
		}
		out = append(out, st)
	}
	return out, nil
}

func trimExt(name string) string {
	if ext := filepath.Ext(name); ext != "" {
		return name[:len(name)-len(ext)]
	}
	return name
}

// gc evicts least-recently-used traces until the store's total size fits
// maxBytes. Keys in keep (the cache's hot in-memory entries) are never
// evicted. On unix an mmap'd view of an evicted file stays valid — the
// kernel keeps the pages until the last mapping goes away — so GC cannot
// tear a trace out from under a running sweep.
func (s *traceStore) gc(maxBytes int64, keep map[string]bool) (removed int, freed int64, err error) {
	traces, err := s.list()
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, t := range traces {
		total += t.size
	}
	if total <= maxBytes {
		return 0, 0, nil
	}
	sort.Slice(traces, func(i, j int) bool {
		if traces[i].used != traces[j].used {
			return traces[i].used < traces[j].used
		}
		return traces[i].key < traces[j].key // deterministic tie-break
	})
	for _, t := range traces {
		if total <= maxBytes {
			break
		}
		if keep[t.key] {
			continue
		}
		// Shard-level flock: a writer installing this very trace in another
		// process finishes its rename before the eviction lands (or the
		// eviction goes first and the writer re-installs). The flock is
		// taken without holding s.mu — put holds its shard flock while
		// touching the index under s.mu, so the reverse order here would
		// deadlock the process.
		unlock := s.lockShard(t.key)
		rmErr := os.Remove(t.path)
		unlock()
		if rmErr != nil {
			err = rmErr
			continue
		}
		s.mu.Lock()
		s.loadLocked()
		delete(s.idx, t.key)
		s.mu.Unlock()
		total -= t.size
		freed += t.size
		removed++
	}
	s.flush()
	return removed, freed, err
}

// writeAtomic writes data to path via a temp file and rename, creating dir
// first. It reports success; failures are the caller's policy to absorb.
func writeAtomic(dir, path string, data []byte) bool {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false
	}
	tmp, err := os.CreateTemp(dir, ".contacts-*")
	if err != nil {
		return false
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}
