package exp

import (
	"context"
	"testing"

	"relief/internal/mem"
	"relief/internal/sim"
	"relief/internal/workload"
)

// TestClaimEngineMatchesChunkwiseOnGrid runs real main-grid scenarios twice,
// once with the analytic DMA claim engine (the default) and once with every
// transfer served chunk by chunk, and requires identical digest lines. The
// claim engine's own unit tests cover two-stream interleavings; this covers
// the traffic the experiments actually generate. -short runs every tenth
// scenario.
func TestClaimEngineMatchesChunkwiseOnGrid(t *testing.T) {
	grid := MainGrid()
	step := 1
	if testing.Short() {
		step = 10
	}
	var events [2]uint64
	for i := 0; i < len(grid); i += step {
		sc := grid[i]
		var lines [2]string
		for j, claims := range []bool{true, false} {
			k := sim.NewKernel()
			mem.SetClaims(k, claims)
			r, err := runOn(context.Background(), k, sc)
			if err != nil {
				t.Fatal(err)
			}
			lines[j] = scenarioDigestLine(sc, r)
			events[j] += r.Stats.EventsFired
		}
		if lines[0] != lines[1] {
			t.Errorf("claims on and off disagree:\n on: %s off: %s", lines[0], lines[1])
		}
	}
	// Claims replace two events per chunk per stage with one completion,
	// so switching them off must show in the event count.
	if events[0] >= events[1] {
		t.Errorf("claims on fired %d events, off %d: the switch had no effect", events[0], events[1])
	}
}

// maxContinuousAllocs caps the heap allocations of one CGL continuous-
// contention RELIEF run, the scenario BenchmarkScenarioContinuous times.
// The pooled DMA transfers, dense node-state slabs, template-cloned DAGs
// and precomputed interconnect paths brought it from about 76,900 to about
// 19,500; the cap leaves room for noise in library internals, not for a
// hot path that allocates again.
const maxContinuousAllocs = 25000

func TestContinuousScenarioAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are pinned in the full suite only (the race detector adds its own)")
	}
	mix, err := workload.ParseMix("CGL")
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Mix: mix, Contention: workload.Continuous, Policy: "RELIEF"}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxContinuousAllocs {
		t.Errorf("CGL/continuous/RELIEF made %.0f allocations per run, ceiling %d", allocs, maxContinuousAllocs)
	}
}
