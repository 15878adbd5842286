package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics names read by the benchmark.
const (
	rmHeapLive = "/gc/heap/live:bytes"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmIdleCPU  = "/cpu/classes/idle:cpu-seconds"
)

// runtimeCPU is the Go runtime's CPU accounting at one moment.
type runtimeCPU struct{ gc, busy float64 }

func readRuntimeCPU() runtimeCPU {
	s := []rtmetrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmIdleCPU}}
	rtmetrics.Read(s)
	return runtimeCPU{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// gcShare is the share of busy CPU the garbage collector took between a
// and b.
func gcShare(a, b runtimeCPU) float64 {
	if b.busy <= a.busy {
		return 0
	}
	return (b.gc - a.gc) / (b.busy - a.busy)
}

// liveHeapMB collects garbage and returns the live heap in MB: what a
// collection finds reachable, which unlike the heap in use does not swing
// with how far the collector happened to be behind.
func liveHeapMB() float64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: rmHeapLive}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// sampler polls the live heap (and an optional gauge) while a measurement
// window is open, keeping their maxima.
type sampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	heap  uint64
	gauge float64
}

// startSampler polls every period until finish; gauge may be nil.
func startSampler(period time.Duration, gauge func() float64) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		sample := []rtmetrics.Sample{{Name: rmHeapLive}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			rtmetrics.Read(sample)
			s.heap = max(s.heap, sample[0].Value.Uint64())
			if gauge != nil {
				s.gauge = max(s.gauge, gauge())
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak live heap in MB and the
// peak gauge value.
func (s *sampler) finish() (heapMB, gaugeMax float64) {
	close(s.stop)
	s.done.Wait()
	return float64(s.heap) / 1e6, s.gauge
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
