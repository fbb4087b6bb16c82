package main

import (
	"sort"
	"time"
)

// Timings on a shared host drift with the host: other tenants' load on
// the same cores and memory slows the guest's CPU for seconds to minutes
// at a time. Between identical runs a few minutes apart, the process's
// own CPU time per grid scenario moved by 10–15% (interquartile share),
// so no median or minimum over a run's samples can hide it. The
// benchmark therefore times a fixed reference kernel of its own at
// regular points of every timed phase, and scales each timing taken
// between two readings by refNominalMS over their mean. The program
// cannot change the kernel's cost, so a faster or slower program moves
// the scaled figures just as it moves the raw ones; what cancels is the
// host's speed at the time. In five runs of grid-continuous on a 2-vCPU
// Xeon guest, this cut the interquartile spread of scenarios_per_s from
// 0.10 (wall clock) to 0.04.

// refNominalMS is the reference kernel's time on the nominal host; every
// scaled timing reads as if taken on a host that runs the kernel in this
// time. It is about the kernel's median on the 2-vCPU Xeon guest the
// benchmark was tuned on, so scaled figures there stay close to raw ones.
const refNominalMS = 8.0

// readEvery is the longest a timed phase goes between two readings, and
// refWindow how many readings on either side of a timing scale it.
const (
	readEvery = 250 * time.Millisecond
	refWindow = 6
)

// refEvent is an entry of the reference kernel's event queue.
type refEvent struct {
	at  uint64
	seq int
	val uint64
}

func (e refEvent) before(f refEvent) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

// refSink keeps the compiler from dropping the kernel's work.
var refSink uint64

// refKernel does a fixed amount of work shaped like the simulator's hot
// loop: a time-ordered binary-heap event queue and a map updated per
// event. It shares no code with the program, and allocates only its queue
// and map, so it barely moves the heap figures (the allocation figures
// leave its bytes out; see speedometer).
func refKernel() time.Duration {
	t := time.Now()
	q := make([]refEvent, 0, 256)
	counts := make(map[uint64]uint64, 4096)
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(e refEvent) {
		q = append(q, e)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 2
			if !q[i].before(q[p]) {
				break
			}
			q[i], q[p] = q[p], q[i]
			i = p
		}
	}
	pop := func() refEvent {
		top := q[0]
		q[0] = q[len(q)-1]
		q = q[:len(q)-1]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < len(q) && q[l].before(q[m]) {
				m = l
			}
			if l+1 < len(q) && q[l+1].before(q[m]) {
				m = l + 1
			}
			if m == i {
				break
			}
			q[i], q[m] = q[m], q[i]
			i = m
		}
		return top
	}
	for i := 0; i < 256; i++ {
		push(refEvent{at: next() % 1000, seq: i, val: x})
	}
	for i := 0; i < 60000; i++ {
		e := pop()
		r := next()
		counts[r%4096] += e.val
		push(refEvent{at: e.at + r%1000, seq: 256 + i, val: r ^ e.at})
	}
	for _, v := range counts {
		refSink += v
	}
	return time.Since(t)
}

// speedometer holds a timed phase's readings of the reference kernel.
type speedometer struct {
	at  []time.Time // when each reading started
	ref []float64   // each reading's kernel time, ms
	// allocBytes and allocObjects are what the readings allocated, for
	// the allocation figures to leave out.
	allocBytes, allocObjects uint64
	counter                  *allocCounter
}

// read times the reference kernel once.
func (s *speedometer) read() {
	if s.counter == nil {
		s.counter = newAllocCounter()
	}
	o0, b0 := s.counter.read()
	s.at = append(s.at, time.Now())
	s.ref = append(s.ref, ms(refKernel()))
	o1, b1 := s.counter.read()
	s.allocObjects += o1 - o0
	s.allocBytes += b1 - b0
}

// readIfDue reads when the last reading is readEvery old.
func (s *speedometer) readIfDue() {
	if len(s.at) == 0 || time.Since(s.at[len(s.at)-1]) >= readEvery {
		s.read()
	}
}

// scale is the factor that brings a timing started at t to the nominal
// host: refNominalMS over the median of the refWindow readings on either
// side of t (fewer at the ends of the phase). A single reading caught by
// a burst of load would otherwise move every timing near it.
func (s *speedometer) scale(t time.Time) float64 {
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(t) })
	lo, hi := max(i-refWindow, 0), min(i+refWindow, len(s.at))
	return refNominalMS / median(append([]float64(nil), s.ref[lo:hi]...))
}

// scaled is d in milliseconds, started at t, scaled to the nominal host.
func (s *speedometer) scaled(d time.Duration, t time.Time) float64 {
	return ms(d) * s.scale(t)
}

// median is the median reading, ms: the host's speed over the phase.
func (s *speedometer) median() float64 {
	return median(append([]float64(nil), s.ref...))
}
