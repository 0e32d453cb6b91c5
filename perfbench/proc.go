package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is a process-wide resource reading: CPU from rusage, GC CPU and
// allocation from the Go runtime.
type procSnap struct {
	wall  time.Time
	cpu   float64 // user+system seconds
	gcCPU float64 // runtime estimate of GC CPU seconds
	goCPU float64 // runtime estimate of all CPU seconds
	alloc uint64  // cumulative heap bytes allocated
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(cpuSamples)
	return procSnap{
		wall:  time.Now(),
		cpu:   tv(ru.Utime) + tv(ru.Stime),
		gcCPU: cpuSamples[0].Value.Float64(),
		goCPU: cpuSamples[1].Value.Float64(),
		alloc: cpuSamples[2].Value.Uint64(),
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// procDelta is the resource use between two snapshots, per operation.
type procDelta struct {
	CPUPerOp   float64 // CPU seconds per operation
	GCFrac     float64 // share of Go CPU spent in GC
	AllocPerOp float64 // heap bytes per operation
}

func deltaProc(a, b procSnap, ops int64) procDelta {
	var d procDelta
	if ops > 0 {
		d.CPUPerOp = (b.cpu - a.cpu) / float64(ops)
		d.AllocPerOp = float64(b.alloc-a.alloc) / float64(ops)
	}
	if g := b.goCPU - a.goCPU; g > 0 {
		d.GCFrac = (b.gcCPU - a.gcCPU) / g
	}
	return d
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// reportProc publishes the proc.* layer metrics and the tracing overhead:
// the traced phase's CPU per operation over the untraced phase's.
func reportProc(res *result, untraced, traced procDelta) {
	res.perLayer("proc.cpu_s_per_op", "s", untraced.CPUPerOp)
	res.perLayer("proc.gc_cpu_frac", "frac", untraced.GCFrac)
	res.perLayer("proc.alloc_bytes_per_op", "B", untraced.AllocPerOp)
	over := 0.0
	if untraced.CPUPerOp > 0 {
		over = traced.CPUPerOp/untraced.CPUPerOp - 1
	}
	res.perLayer("trace.overhead_frac", "frac", over)
	res.note("tracing overhead: %.1f%% CPU per operation (untraced %.4g s/op, traced %.4g s/op)",
		100*over, untraced.CPUPerOp, traced.CPUPerOp)
}
