package experiments

import (
	"os"
	"path/filepath"
	"sort"
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
//
// The shard files are the store's only state: each file's mtime is its
// last-use stamp, set on every install and every disk serve, and the
// size-bounded GC orders its evictions by it.
type traceStore struct {
	dir string

	// now supplies the clock behind last-use stamps, so GC eviction-order
	// tests can drive it directly instead of racing the wall clock.
	now func() time.Time
}

// lockFile names the advisory flock file of one shard directory,
// serializing trace installs against GC evictions of that shard. The dot
// prefix keeps it out of the trace glob.
const lockFile = ".lock"

func newTraceStore(dir string) *traceStore {
	return &traceStore{dir: dir, now: time.Now}
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
// torn file, and stamps its last use. Errors are swallowed by the caller's
// contract: persistence is an optimization and must never fail a run that
// already holds a valid recording.
func (s *traceStore) put(key string, data []byte) (path string, ok bool) {
	path = s.shardPath(key)
	// Cross-process exclusion against a concurrent GC of this shard: an
	// eviction lands either before the rename (and the trace is installed
	// fresh) or after the stamp, never in between.
	unlock := s.lockShard(key)
	defer unlock()
	if !writeAtomic(filepath.Dir(path), path, data) {
		return path, false
	}
	s.stamp(key)
	return path, true
}

// stamp records a use of key's trace as its file's mtime. A trace another
// process evicted meanwhile simply stays gone.
func (s *traceStore) stamp(key string) {
	now := s.now()
	_ = os.Chtimes(s.shardPath(key), now, now)
}

// lockShard takes the advisory cross-process lock of key's shard
// directory. Writers (put) and the GC's evictions hold it around their
// file mutations; readers never need it — every write is temp+rename
// atomic, the lock only orders writers against removals.
//
// The store takes only the per-shard flock, holds one shard's at a time,
// and takes no other lock while holding it, so concurrent runners sharing
// a directory cannot deadlock on it.
func (s *traceStore) lockShard(key string) (unlock func()) {
	return lockExclusive(filepath.Join(s.dir, shardOf(key), lockFile))
}

// storedTrace describes one shard file for GC.
type storedTrace struct {
	key  string
	path string
	size int64
	used time.Time
}

// list enumerates every sharded trace with its LRU ordering key.
func (s *traceStore) list() ([]storedTrace, error) {
	files, err := filepath.Glob(filepath.Join(s.dir, "??", "*.contactsb"))
	if err != nil {
		return nil, err
	}
	var out []storedTrace
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil || fi.IsDir() {
			continue
		}
		key := trimExt(filepath.Base(f))
		out = append(out, storedTrace{key: key, path: f, size: fi.Size(), used: fi.ModTime()})
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
// evicted. A view holds its own copy of the file's bytes, so evicting a
// file cannot tear a trace out from under a running sweep.
func (s *traceStore) gc(maxBytes int64, keep map[string]bool) (removed int, freed int64, err error) {
	traces, err := s.list()
	if err != nil {
		return 0, 0, err
	}
	return s.evict(traces, maxBytes, keep)
}

// evict removes traces from a store listing in (mtime, fingerprint) order
// until the listed total fits maxBytes.
func (s *traceStore) evict(traces []storedTrace, maxBytes int64, keep map[string]bool) (removed int, freed int64, err error) {
	var total int64
	for _, t := range traces {
		total += t.size
	}
	if total <= maxBytes {
		return 0, 0, nil
	}
	sort.Slice(traces, func(i, j int) bool {
		if !traces[i].used.Equal(traces[j].used) {
			return traces[i].used.Before(traces[j].used)
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
		// eviction goes first and the writer re-installs).
		unlock := s.lockShard(t.key)
		rmErr := os.Remove(t.path)
		unlock()
		switch {
		case os.IsNotExist(rmErr):
			// A concurrent GC in another process evicted it first: the
			// bytes are already freed, though not by this process.
			total -= t.size
		case rmErr != nil:
			err = rmErr
		default:
			total -= t.size
			freed += t.size
			removed++
		}
	}
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
