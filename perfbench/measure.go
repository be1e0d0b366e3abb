package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process counters an
// operation is charged with: wall clock, CPU (user + system, every
// thread), and the heap allocation totals.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	gcCPU  float64 // seconds the runtime attributes to GC
}

// now reads the wall clock. The benchmark times real work, so it is
// wall-clock code by nature; every read goes through here so that its
// one exemption from the determinism check is stated once.
func now() time.Time {
	//lint:ignore determinism the benchmark measures real elapsed time
	return time.Now()
}

// processCPU returns the CPU time the whole process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSample reads the runtime's GC CPU estimate.
var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// readUsage snapshots the counters. ReadMemStats stops the world to
// flush every P's allocation cache, so the allocation counts are exact.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	u := usage{wall: now(), cpu: processCPU(), allocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return u
}

// cost is the difference between two readings.
type cost struct {
	wall, cpu     time.Duration
	allocs, bytes uint64
	gcCPU         float64
}

func (u usage) since(before usage) cost {
	return cost{
		wall:   u.wall.Sub(before.wall),
		cpu:    u.cpu - before.cpu,
		allocs: u.allocs - before.allocs,
		bytes:  u.bytes - before.bytes,
		gcCPU:  u.gcCPU - before.gcCPU,
	}
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.allocs += o.allocs
	c.bytes += o.bytes
	c.gcCPU += o.gcCPU
}

// liveHeapMB forces two collections (the second frees what the first
// only finalized) and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile returns the q-quantile of xs by linear interpolation
// between the closest ranks, or 0 for no samples. xs need not be
// sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is quantile 0.5.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
