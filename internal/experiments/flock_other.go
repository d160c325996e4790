//go:build !unix

package experiments

// lockExclusive on platforms without a wired-up flock is a no-op: writes
// stay atomic via temp-file + rename, so correctness holds without the
// lock — only the cross-process write/GC exclusion is lost.
func lockExclusive(path string) (unlock func()) {
	return func() {}
}
