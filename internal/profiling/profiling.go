// Package profiling backs the CLIs' -cpuprofile and -memprofile flags with
// the standard library's runtime/pprof. Profiles only observe the process:
// a profiled run prints and writes the same bytes as an unprofiled one.
//
// Inspect a profile with go tool pprof, e.g.
//
//	vdtnsim -protocol epidemic -policy lifetime -cpuprofile cpu.out
//	go tool pprof -top cpu.out
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuFile, if it is non-empty, and
// returns stop. stop ends the CPU profile and, if memFile is non-empty,
// writes a heap profile taken after a garbage collection to memFile. stop
// is safe to call more than once; calls after the first do nothing.
func Start(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memFile != "" {
			errs = append(errs, writeHeap(memFile))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}
