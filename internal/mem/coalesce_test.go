package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"relief/internal/sim"
)

// newKernel returns a fresh kernel with analytic claims switched on or off.
func newKernel(claims bool) *sim.Kernel {
	k := sim.NewKernel()
	SetClaims(k, claims)
	return k
}

// coalesceScenario builds one randomized two-transfer contention scenario
// and renders every externally observable quantity — completion results,
// per-resource counters, union occupancy, and the counters sampled at the
// moment the second stream arrives — into a canonical string. Claims on
// and off must render identically.
func coalesceScenario(t *testing.T, rng *rand.Rand, claims bool) string {
	k := newKernel(claims)
	bws := []float64{1 * GB, 6.4 * GB, 14.9 * GB}
	shape := rng.Intn(4)
	occ := NewOccupancy(k)
	var a, b *Resource
	var pathA, pathB []Server
	switch shape {
	case 0: // single shared stage, watched (bus-to-bus forward)
		a = NewResource(k, "bus", bws[rng.Intn(len(bws))])
		a.SetOccupancy(occ)
		pathA = []Server{a}
		pathB = []Server{a}
	case 1: // dram->bus, second stream takes the reverse path
		a = NewResource(k, "dram", bws[rng.Intn(len(bws))])
		b = NewResource(k, "bus", bws[rng.Intn(len(bws))])
		b.SetOccupancy(occ)
		pathA = []Server{a, b}
		pathB = []Server{b, a}
	case 2: // equal-bandwidth crossbar ports, both watched
		bw := bws[rng.Intn(len(bws))]
		a = NewResource(k, "portA", bw)
		b = NewResource(k, "portB", bw)
		a.SetOccupancy(occ)
		b.SetOccupancy(occ)
		pathA = []Server{a, b}
		pathB = []Server{a, b}
	default: // disjoint resources sharing the occupancy tracker
		a = NewResource(k, "portA", bws[rng.Intn(len(bws))])
		b = NewResource(k, "portB", bws[rng.Intn(len(bws))])
		a.SetOccupancy(occ)
		b.SetOccupancy(occ)
		pathA = []Server{a}
		pathB = []Server{b}
	}
	bytesA := int64(1 + rng.Intn(64*DefaultChunkBytes))
	bytesB := int64(1 + rng.Intn(64*DefaultChunkBytes))
	delayB := sim.Time(rng.Int63n(int64(pathA[0].ServiceTime(bytesA) * 2)))
	setup := sim.Time(rng.Int63n(3)) * sim.Microsecond

	out := ""
	record := func(tag string, tr TransferResult) {
		out += fmt.Sprintf("%s bytes=%d start=%d end=%d\n", tag, tr.Bytes, int64(tr.Start), int64(tr.End))
	}
	StartTransfer(k, pathA, bytesA, setup, func(tr TransferResult) { record("A", tr) })
	k.Schedule(delayB, func() {
		// Sample mid-flight state the instant the interloper arrives: with
		// a claim active these route through the analytic stage views.
		out += fmt.Sprintf("@B t=%d a:busy=%d bytes=%d q=%d", int64(k.Now()),
			int64(a.BusyTime()), a.BytesServed(), a.QueueLen())
		if b != nil {
			out += fmt.Sprintf(" b:busy=%d bytes=%d q=%d", int64(b.BusyTime()), b.BytesServed(), b.QueueLen())
		}
		out += fmt.Sprintf(" occ=%d\n", int64(occ.Busy()))
		StartTransfer(k, pathB, bytesB, 0, func(tr TransferResult) { record("B", tr) })
	})
	k.Run()
	out += fmt.Sprintf("a:busy=%d bytes=%d", int64(a.BusyTime()), a.BytesServed())
	if b != nil {
		out += fmt.Sprintf(" b:busy=%d bytes=%d", int64(b.BusyTime()), b.BytesServed())
	}
	out += fmt.Sprintf(" occ=%d end=%d\n", int64(occ.Busy()), int64(k.Now()))
	return out
}

// TestCoalesceMatchesChunkwiseReference is the claim machinery's oracle:
// across randomized paths, sizes, bandwidths and interrupt times, a claimed
// transfer interrupted by a second stream must leave every observable —
// completion times, busy accounting, bytes, queue depths, union occupancy —
// bit-identical to the chunk-by-chunk reference implementation.
func TestCoalesceMatchesChunkwiseReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		var ref, opt string
		ref = coalesceScenario(t, rand.New(rand.NewSource(seed)), false)
		opt = coalesceScenario(t, rand.New(rand.NewSource(seed)), true)
		if ref != opt {
			t.Fatalf("seed %d: coalesced run diverged from chunk-wise reference\nreference:\n%s\ncoalesced:\n%s", seed, ref, opt)
		}
	}
}

// TestCoalesceFairnessTwoStreams: when a second stream joins mid-transfer,
// the claim materializes and both streams share bandwidth chunk-for-chunk
// exactly as the reference implementation: identical completion times, and
// neither stream starved.
func TestCoalesceFairnessTwoStreams(t *testing.T) {
	run := func(claims bool) (ends [2]sim.Time) {
		k := newKernel(claims)
		r := NewResource(k, "dram", 1*GB)
		const bytes = 32 * DefaultChunkBytes
		StartTransfer(k, []Server{r}, bytes, 0, func(tr TransferResult) { ends[0] = tr.End })
		// Join halfway through the first transfer.
		k.Schedule(r.ServiceTime(bytes)/2, func() {
			StartTransfer(k, []Server{r}, bytes, 0, func(tr TransferResult) { ends[1] = tr.End })
		})
		k.Run()
		return ends
	}
	ref, opt := run(false), run(true)
	if ref != opt {
		t.Fatalf("completion times with coalescing %v differ from reference %v", opt, ref)
	}
	// Chunk-granularity fairness: after the join the streams alternate, so
	// the first stream cannot finish before serving its own 32 chunks plus
	// the ~16 interleaved chunks of the joiner; and the resource never
	// idles, so the last stream finishes exactly at the total-work time.
	k := sim.NewKernel()
	r := NewResource(k, "x", 1*GB)
	const bytes = 32 * DefaultChunkBytes
	chunk := r.ServiceTime(DefaultChunkBytes)
	if fair := r.ServiceTime(bytes + bytes/2); opt[0] < fair-2*chunk {
		t.Fatalf("first stream finished at %v, before fair-share bound %v — joiner starved", opt[0], fair-2*chunk)
	}
	if total := r.ServiceTime(2 * bytes); opt[1] != total {
		t.Fatalf("last stream finished at %v, want work-conserving total %v", opt[1], total)
	}
}

// TestCoalesceSoloTransferEventCount: an uncontended transfer must cost a
// constant number of events, not two per chunk per stage.
func TestCoalesceSoloTransferEventCount(t *testing.T) {
	k := sim.NewKernel()
	a := NewResource(k, "dram", 6.4*GB)
	b := NewResource(k, "bus", 14.9*GB)
	const bytes = 256 * DefaultChunkBytes
	var res TransferResult
	StartTransfer(k, []Server{a, b}, bytes, sim.Microsecond, func(tr TransferResult) { res = tr })
	k.Run()
	if res.Bytes != bytes {
		t.Fatalf("transfer moved %d bytes, want %d", res.Bytes, bytes)
	}
	if fired := k.Fired(); fired > 4 {
		t.Fatalf("solo transfer fired %d events; the claim path should fire O(1)", fired)
	}
	// And the analytic end time must equal the chunk-wise pipeline formula:
	// serial time on the bottleneck plus one chunk through the fast stage.
	want := sim.Microsecond + a.ServiceTime(bytes) + b.ServiceTime(DefaultChunkBytes)
	if res.End != want {
		t.Fatalf("claimed transfer ended at %v, want %v", res.End, want)
	}
}

// TestCoalesceHorizonQueries: stopping the kernel mid-claim (continuous
// workloads stop at a horizon) must report the same busy accounting as the
// chunk-wise reference at that instant.
func TestCoalesceHorizonQueries(t *testing.T) {
	run := func(claims bool) string {
		k := newKernel(claims)
		a := NewResource(k, "dram", 1*GB)
		b := NewResource(k, "bus", 2*GB)
		b.SetOccupancy(occFor(k))
		StartTransfer(k, []Server{a, b}, 40*DefaultChunkBytes, 0, func(TransferResult) {})
		limit := a.ServiceTime(40*DefaultChunkBytes) / 3
		k.RunUntil(limit)
		return fmt.Sprintf("a=%d b=%d", int64(a.BusyTime()), int64(b.BusyTime()))
	}
	ref, opt := run(false), run(true)
	if ref != opt {
		t.Fatalf("horizon-stop busy accounting diverged: reference %s, coalesced %s", ref, opt)
	}
}

func occFor(k *sim.Kernel) *Occupancy { return NewOccupancy(k) }
