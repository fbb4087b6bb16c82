package mem

import (
	"fmt"
	"testing"

	"relief/internal/sim"
)

// TestStartTransferSteadyStateDoesNotAllocate pins the pooled transfer
// engine: once a kernel's transfer free list, event pool and resource FIFOs
// are warm, starting and draining transfers allocates nothing. It covers
// claimed solo transfers, contended ones whose claim folds back to
// chunk-wise service mid-flight, and purely chunk-wise ones (claims off),
// on paths of one to four stages.
func TestStartTransferSteadyStateDoesNotAllocate(t *testing.T) {
	bws := []float64{6.4 * GB, 14.9 * GB, 10 * GB, 25.6 * GB}
	const bytes = 24*DefaultChunkBytes + 100
	for stages := 1; stages <= 4; stages++ {
		for _, tc := range []struct {
			name    string
			claims  bool
			streams int
		}{{"claimed", true, 1}, {"contended", true, 2}, {"chunked", false, 2}} {
			k := newKernel(tc.claims)
			occ := NewOccupancy(k)
			path := make([]Server, stages)
			for s := range path {
				r := NewResource(k, fmt.Sprintf("s%d", s), bws[s])
				if s == 0 {
					r.SetOccupancy(occ)
				}
				path[s] = r
			}
			finished := 0
			done := func(TransferResult) { finished++ }
			second := func() { StartTransfer(k, path, bytes, 0, done) }
			run := func() {
				StartTransfer(k, path, bytes, sim.Microsecond, done)
				if tc.streams == 2 {
					k.Schedule(sim.Microsecond+path[0].ServiceTime(bytes)/2, second)
				}
				k.Run()
			}
			run() // warm the pools and FIFOs
			allocs := testing.AllocsPerRun(50, run)
			if allocs != 0 {
				t.Errorf("%d stages, %s: %.1f allocations per run, want 0", stages, tc.name, allocs)
			}
			if want := 52 * tc.streams; finished != want {
				t.Errorf("%d stages, %s: %d transfers finished, want %d", stages, tc.name, finished, want)
			}
			switch {
			case tc.name == "claimed" && (occ.Claims == 0 || occ.Conflicts != 0):
				t.Errorf("%d stages: solo transfers made %d claims, %d conflicts; want claims and no conflicts", stages, occ.Claims, occ.Conflicts)
			case tc.name == "contended" && occ.Conflicts == 0:
				t.Errorf("%d stages: no claim was folded back by the second stream", stages)
			case tc.name == "chunked" && occ.Claims != 0:
				t.Errorf("%d stages: %d claims with claims switched off", stages, occ.Claims)
			}
		}
	}
}

// TestTransferReusedFromDoneCallback starts the next transfer from inside
// the previous one's done callback, so it takes the object the callback's
// transfer just returned to the free list. Every result must still be
// exact: finish hands the object back only after reading it, and the
// chunk loop touches nothing after finish.
func TestTransferReusedFromDoneCallback(t *testing.T) {
	for _, tc := range []struct {
		claims bool
		stages int
	}{{true, 1}, {true, 2}, {false, 1}, {false, 2}} {
		claims := tc.claims
		k := newKernel(claims)
		path := []Server{NewResource(k, "dram", 6.4*GB), NewResource(k, "bus", 14.9*GB)}[:tc.stages]
		sizes := []int64{3 * DefaultChunkBytes, 17 * DefaultChunkBytes, 1, 0, 5 * DefaultChunkBytes, DefaultChunkBytes}
		var got []TransferResult
		var next func(TransferResult)
		next = func(res TransferResult) {
			got = append(got, res)
			if len(got) < len(sizes) {
				StartTransfer(k, path, sizes[len(got)], 0, next)
			}
		}
		StartTransfer(k, path, sizes[0], 0, next)
		k.Run()
		if len(got) != len(sizes) {
			t.Fatalf("claims=%v: %d transfers finished, want %d", claims, len(got), len(sizes))
		}
		for i, res := range got {
			if res.Bytes != sizes[i] {
				t.Errorf("claims=%v: transfer %d reported %d bytes, want %d", claims, i, res.Bytes, sizes[i])
			}
			want := UnloadedTime(path, sizes[i])
			if d := res.End - res.Start; d != want {
				t.Errorf("claims=%v: transfer %d took %v, want the idle-path time %v", claims, i, d, want)
			}
			if i > 0 && res.Start != got[i-1].End {
				t.Errorf("claims=%v: transfer %d started at %v, want %v", claims, i, res.Start, got[i-1].End)
			}
		}
	}
}
