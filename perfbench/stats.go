package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place). 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowedLatency splits a loop into whole windows of length win by
// completion time and returns the medians over the windows of each
// window's latency p50 and p90, so a short stall of the machine moves
// one window, not the figure. With win 0, or a loop shorter than two
// windows, the percentiles are taken over all operations.
func windowedLatency(ops []op, elapsed, win time.Duration) (p50, p90 float64) {
	ms := func(ops []op) []float64 {
		out := make([]float64, len(ops))
		for i, o := range ops {
			out[i] = float64(o.lat) / 1e6
		}
		return out
	}
	if win <= 0 || elapsed < 2*win {
		lat := ms(ops)
		return percentile(lat, 0.5), percentile(lat, 0.9)
	}
	buckets := make([][]op, int(elapsed/win))
	for _, o := range ops {
		if i := int(o.end / win); i < len(buckets) {
			buckets[i] = append(buckets[i], o)
		}
	}
	var p50s, p90s []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		lat := ms(b)
		p50s = append(p50s, percentile(lat, 0.5))
		p90s = append(p90s, percentile(lat, 0.9))
	}
	return percentile(p50s, 0.5), percentile(p90s, 0.5)
}

// runStats are the process's figures over one timed loop.
type runStats struct {
	// cpu is the CPU time the process was given. The kernel leaves out
	// time the hypervisor stole from the VM, which wall time cannot.
	cpu        time.Duration
	heapP95MB  float64
	allocBytes float64
	gcCPUShare float64
}

// heapSampleEvery is how often the heap sampler reads the live heap.
const heapSampleEvery = 5 * time.Millisecond

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// runtimeTracker samples the live heap (the bytes the last GC marked
// reachable) in the background between start and stop. The live heap,
// unlike the heap in use, does not depend on how far the collector let
// garbage pile up; its 95th percentile over the loop repeats from run to
// run where its maximum does not.
type runtimeTracker struct {
	cpu0  time.Duration
	start []metrics.Sample
	stopc chan struct{}
	wg    sync.WaitGroup
	heap  []float64
}

func startRuntimeStats() *runtimeTracker {
	t := &runtimeTracker{cpu0: processCPU(), start: readRuntime(), stopc: make(chan struct{})}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		s := []metrics.Sample{{Name: runtimeNames[0]}}
		for {
			select {
			case <-t.stopc:
				return
			case <-tick.C:
				metrics.Read(s)
				t.heap = append(t.heap, sampleValue(s[0]))
			}
		}
	}()
	return t
}

func (t *runtimeTracker) stop() runStats {
	close(t.stopc)
	t.wg.Wait()
	end := readRuntime()
	t.heap = append(t.heap, sampleValue(end[0]))
	gc := sampleValue(end[2]) - sampleValue(t.start[2])
	total := sampleValue(end[3]) - sampleValue(t.start[3])
	rs := runStats{
		cpu:        processCPU() - t.cpu0,
		heapP95MB:  percentile(t.heap, 0.95) / (1 << 20),
		allocBytes: sampleValue(end[1]) - sampleValue(t.start[1]),
	}
	if total > 0 {
		rs.gcCPUShare = gc / total
	}
	return rs
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
