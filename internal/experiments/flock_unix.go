//go:build unix

package experiments

import (
	"os"
	"path/filepath"
	"syscall"
)

// lockExclusive takes an advisory exclusive flock on path (creating the
// lock file — and its directory — if needed), blocking until the lock is
// granted, and returns the release function. The lock is best-effort by
// contract: every writer already lands its data via temp-file + rename,
// so a reader can never observe a torn file even unlocked; the flock only
// serializes writers against the GC so an eviction pass in one process
// cannot remove a trace another process is in the middle of installing
// and stamping. Any failure to acquire therefore degrades to a no-op
// release rather than failing the caller.
func lockExclusive(path string) (unlock func()) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return func() {}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return func() {}
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return func() {}
	}
	// Closing the descriptor releases the flock even if LOCK_UN fails, so
	// a crashed holder never wedges the store: the kernel drops the lock
	// with the process.
	return func() {
		_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}
}
