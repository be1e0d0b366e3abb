package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// ProfileFlags registers the -cpuprofile, -memprofile, and -trace
// flags on the default flag set and returns the bound values. All
// default to off (empty path). The -trace capture is the inspection
// tool for goroutine-parallel runs (the internal/ess shard workers and
// the internal/engine evaluation pool): `go tool trace` shows the
// per-window fan-out, the serial barrier gaps between fan-outs, and
// how evenly the work packs onto the workers.
func ProfileFlags() (cpu, mem, trace *string) {
	cpu = flag.String("cpuprofile", "", "write a CPU profile to this file")
	mem = flag.String("memprofile", "", "write a heap profile to this file on exit")
	trace = flag.String("trace", "", "write a runtime/trace execution trace to this file")
	return cpu, mem, trace
}

// StartProfiles begins CPU profiling and execution tracing for the
// non-empty paths and returns a stop function that finishes both and,
// when mem is non-empty, writes a heap profile. Callers must invoke
// stop on every exit path that should produce profiles (defer works
// for normal returns; os.Exit paths need an explicit call first).
func StartProfiles(prog, cpu, mem, trace string) (stop func()) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			Exit(prog, fmt.Errorf("cpu profile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Exit(prog, fmt.Errorf("cpu profile: %w", err))
		}
		cpuFile = f
	}
	var traceFile *os.File
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			Exit(prog, fmt.Errorf("execution trace: %w", err))
		}
		if err := rtrace.Start(f); err != nil {
			Exit(prog, fmt.Errorf("execution trace: %w", err))
		}
		traceFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				Exit(prog, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if traceFile != nil {
			rtrace.Stop()
			if err := traceFile.Close(); err != nil {
				Exit(prog, fmt.Errorf("execution trace: %w", err))
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				Exit(prog, fmt.Errorf("heap profile: %w", err))
			}
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				Exit(prog, fmt.Errorf("heap profile: %w", err))
			}
			if err := f.Close(); err != nil {
				Exit(prog, fmt.Errorf("heap profile: %w", err))
			}
		}
	}
}
