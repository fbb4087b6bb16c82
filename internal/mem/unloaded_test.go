package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"relief/internal/sim"
)

// TestUnloadedTimeMatchesIdleTransfer checks the closed form against the
// event-driven transfer engine on idle resources: with zero setup, an
// uncontended StartTransfer must finish exactly at UnloadedTime, for both
// the analytic-claim fast path and the chunk-wise slow path.
func TestUnloadedTimeMatchesIdleTransfer(t *testing.T) {
	cases := []struct {
		stages []float64 // bandwidths in bytes/s
		bytes  int64
	}{
		{[]float64{6.4 * GB}, 4096},
		{[]float64{6.4 * GB}, 100_000},
		{[]float64{6.4 * GB, 14.9 * GB}, 262144},
		{[]float64{14.9 * GB, 6.4 * GB}, 262144},
		{[]float64{6.4 * GB, 14.9 * GB, 10 * GB}, 1_000_001},
		{[]float64{6.4 * GB}, 1}, // sub-chunk transfer
		{[]float64{6.4 * GB, 14.9 * GB}, 4096},
	}
	for _, coalesce := range []bool{true, false} {
		for _, tc := range cases {
			k := newKernel(coalesce)
			path := make([]Server, len(tc.stages))
			for i, bw := range tc.stages {
				path[i] = NewResource(k, fmt.Sprintf("s%d", i), bw)
			}
			var got sim.Time
			StartTransfer(k, path, tc.bytes, 0, func(res TransferResult) {
				got = res.End - res.Start
			})
			k.Run()
			want := UnloadedTime(path, tc.bytes)
			if got != want {
				t.Errorf("coalesce=%v stages=%v bytes=%d: transfer=%v UnloadedTime=%v",
					coalesce, tc.stages, tc.bytes, got, want)
			}
		}
	}
}

// TestUnloadedTimeRandomizedProperty cross-validates the closed form
// against the event engine over randomized paths and sizes, weighted toward
// the two boundary regimes where the pipeline algebra is easiest to get
// wrong: C==1 (the whole transfer is one sub-chunk, so the "uniform chunks
// ahead of the final one" term must vanish) and a short final chunk (the
// last chunk drains faster than the steady-state bottleneck cadence, so its
// start is gated by the previous stage's drain, not the uniform schedule).
func TestUnloadedTimeRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20240808))
	bandwidths := []float64{1 * GB, 6.4 * GB, 10 * GB, 14.9 * GB, 25.6 * GB}
	sizes := func() int64 {
		switch rng.Intn(3) {
		case 0: // C==1: a single (possibly partial) chunk
			return 1 + rng.Int63n(DefaultChunkBytes)
		case 1: // short final chunk: full chunks plus a small remainder
			return rng.Int63n(32)*DefaultChunkBytes + 1 + rng.Int63n(64)
		default: // anywhere up to 64 chunks
			return 1 + rng.Int63n(64*DefaultChunkBytes)
		}
	}
	for _, coalesce := range []bool{true, false} {
		for trial := 0; trial < 200; trial++ {
			k := newKernel(coalesce)
			path := make([]Server, 1+rng.Intn(4))
			bws := make([]float64, len(path))
			for i := range path {
				bws[i] = bandwidths[rng.Intn(len(bandwidths))]
				path[i] = NewResource(k, fmt.Sprintf("s%d", i), bws[i])
			}
			n := sizes()
			var got sim.Time
			done := false
			StartTransfer(k, path, n, 0, func(res TransferResult) {
				got = res.End - res.Start
				done = true
			})
			k.Run()
			if !done {
				t.Fatalf("trial %d: transfer never completed (bws=%v bytes=%d)", trial, bws, n)
			}
			if want := UnloadedTime(path, n); got != want {
				t.Errorf("trial %d coalesce=%v bws=%v bytes=%d: transfer=%v UnloadedTime=%v",
					trial, coalesce, bws, n, got, want)
			}
		}
	}
}

func TestUnloadedTimeDegenerate(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "r", GB)
	if UnloadedTime([]Server{r}, 0) != 0 {
		t.Error("zero bytes must cost 0")
	}
	if UnloadedTime(nil, 4096) != 0 {
		t.Error("empty path must cost 0")
	}
}
