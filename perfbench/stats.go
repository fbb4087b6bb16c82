package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). An empty sample yields NaN, which
// the result check reports as a missing metric.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// steadyQuantile splits samples, in the order they were taken, into
// consecutive chunks with at least ten samples beyond the q-quantile and
// at least 100 samples, and returns the median of the chunks' quantiles.
// Host interference on a shared machine comes in bursts; the median over
// chunks keeps a burst from moving the figure. Fewer samples than two
// chunks give the plain quantile.
func steadyQuantile(xs []float64, q float64) float64 {
	chunk := max(100, int(math.Ceil(10/(1-q))))
	if len(xs) < 2*chunk {
		return quantile(append([]float64(nil), xs...), q)
	}
	var qs []float64
	for i := 0; i+chunk <= len(xs); i += chunk {
		qs = append(qs, quantile(append([]float64(nil), xs[i:i+chunk]...), q))
	}
	return median(qs)
}

// scenarioQuantile returns the q-quantile, across scenarios, of each
// scenario's median sample. A scenario's median over the run filters out
// the host's transient stalls; the quantile across scenarios keeps the
// spread of their costs, so an expensive scenario that slows down still
// moves the upper percentiles.
func scenarioQuantile(groups [][]float64, q float64) float64 {
	meds := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, median(append([]float64(nil), g...)))
		}
	}
	return quantile(meds, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rtNames are the runtime/metrics series the benchmark reads.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtStat is one reading of the Go runtime's own counters.
type rtStat struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func readRuntime() rtStat {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStat{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// cpuSeconds is the process's user and system CPU time. The kernel leaves
// out time a virtual CPU was stolen by the hypervisor.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocCounter reads heap allocation totals cheaply (two series only), for
// per-span and per-probe deltas.
type allocCounter struct{ s [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	a.s[1].Name = "/gc/heap/allocs:bytes"
	return a
}

func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// heapPeak samples live heap bytes every two milliseconds until stopped and
// keeps the maximum.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak in MB since the last take and starts a new one.
func (h *heapPeak) take() float64 {
	return float64(h.peak.Swap(0)) / 1e6
}

// takeEvery takes the peak every d on a goroutine of its own. The
// returned stop ends that goroutine and the sampler, waits for both, and
// returns every peak taken, the last one up to the stop.
func (h *heapPeak) takeEvery(d time.Duration) (stop func() []float64) {
	var peaks []float64
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peaks = append(peaks, h.take())
			case <-quit:
				return
			}
		}
	}()
	return func() []float64 {
		close(quit)
		wg.Wait()
		return append(peaks, h.done())
	}
}

// done stops the sampler, waits for it, and returns the peak in MB since
// the last take.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.take()
}
