package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// window is one timed closed-loop window.
type window struct {
	lat       []float64 // latencies of the ops that succeeded, ms
	attempted int64
	failed    int64
	wall      time.Duration
	proc      procSample // resources used during the window
}

// throughput is completed ops per second of wall time.
func (w window) throughput() float64 { return float64(len(w.lat)) / w.wall.Seconds() }

// join pools two windows of the same run.
func (w window) join(o window) window {
	return window{
		lat:       append(w.lat, o.lat...),
		attempted: w.attempted + o.attempted,
		failed:    w.failed + o.failed,
		wall:      w.wall + o.wall,
		proc: procSample{
			cpu:        w.proc.cpu + o.proc.cpu,
			allocBytes: w.proc.allocBytes + o.proc.allocBytes,
			gcCPU:      w.proc.gcCPU + o.proc.gcCPU,
		},
	}
}

// opFunc runs op i.
type opFunc func(ctx context.Context, i int64) error

// closedLoop runs ops from one client, which sends its next op only
// when the previous one has completed, until dur has passed and at least
// minOps ops have succeeded (or 3·dur has passed). Op indices come from
// next, so a second window continues with fresh inputs.
func closedLoop(ctx context.Context, dur time.Duration, minOps int, next *int64, op opFunc) window {
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	var w window
	for ctx.Err() == nil {
		el := time.Since(start)
		if el >= 3*dur || (el >= dur && len(w.lat) >= minOps) {
			break
		}
		i := *next
		*next++
		t0 := time.Now()
		err := op(ctx, i)
		d := time.Since(t0)
		w.attempted++
		if err != nil {
			w.failed++
			continue
		}
		w.lat = append(w.lat, d.Seconds()*1e3)
	}
	w.wall = time.Since(start)
	w.proc = readProc().sub(p0)
	return w
}

// procSample is a process-wide resource reading.
type procSample struct {
	cpu        time.Duration // user + system CPU time
	allocBytes uint64
	gcCPU      float64 // the runtime's estimate of GC CPU seconds
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
	}
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:        a.cpu - b.cpu,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

// retainedHeapMB is the live heap after a full collection.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
