package main

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"relief/internal/ckpt"
	"relief/internal/exp"
	"relief/internal/serve"
	"relief/internal/sim"
)

// TestFlippedByteFails proves the correctness gate catches a one-byte
// change in one cell of a real pass.
func TestFlippedByteFails(t *testing.T) {
	scs := gridScenarios("grid-paper")
	order := make([]int, len(scs))
	for i := range order {
		order[i] = i
	}
	var recs []record
	for _, s := range runPass(scs, order, 2, runPlain) {
		if s.err != nil {
			t.Fatal(s.err)
		}
		recs = append(recs, s.rec)
	}
	if err := checkPin("grid-paper", digest(recs)); err != nil {
		t.Fatal(err)
	}
	if err := selfTestFlip(recs); err != nil {
		t.Fatal(err)
	}
	bad := append([]record(nil), recs...)
	cell := append([]byte(nil), bad[0].cell...)
	cell[len(cell)-2] ^= 1
	bad[0].cell = cell
	if checkPin("grid-paper", digest(bad)) == nil {
		t.Fatal("a flipped cell byte passed the pinned digest")
	}
}

// TestTracedRunMatchesRun checks the benchmark's copy of exp.RunContext
// and its policy decorator against exp.Run on scenarios of every kind the
// benchmark simulates: one-shot, continuous, bank-level DRAM, periodic.
func TestTracedRunMatchesRun(t *testing.T) {
	var scs []exp.Scenario
	for _, name := range []string{"grid-paper", "grid-continuous", "dram-bank"} {
		all := gridScenarios(name)
		// Every policy once, spread over the mixes.
		for i := 0; i < len(exp.FairnessPolicyNames); i++ {
			scs = append(scs, all[(i*9)%len(all)])
		}
	}
	periodic := scs[0]
	periodic.Period, periodic.Horizon = 5*sim.Millisecond, 12*sim.Millisecond
	scs = append(scs, periodic)
	if testing.Short() {
		scs = scs[:len(exp.FairnessPolicyNames)]
	}
	rec := newRecorder(time.Now())
	for _, sc := range scs {
		want := runPlain(sc)
		if want.err != nil {
			t.Fatal(want.err)
		}
		res, rc, err := runTraced(context.Background(), rec, sc)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := encodeTraced(rec, sc, res)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecord(want.rec, got) {
			t.Errorf("%s: traced run differs from exp.Run", want.rec.key)
		}
		if rc.runs != 1 || rc.fired == 0 || rc.scheduled < rc.fired {
			t.Errorf("%s: implausible counts %+v", want.rec.key, rc)
		}
	}
	ls := summarize(rec)
	if ls["sched.insert"] == nil || ls["manager.run"] == nil || ls["workload.build"] == nil {
		t.Fatalf("missing spans: %v", ls)
	}
	if l := ls["manager.run"]; l.self <= 0 || l.self > l.busy {
		t.Errorf("manager.run self time %d outside (0, %d]", l.self, l.busy)
	}
}

func TestSteadyQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	xs[5] = 1e9 // one burst
	if got := steadyQuantile(xs, 0.5); got != 49.5 {
		t.Errorf("median of chunk medians = %v, want 49.5", got)
	}
	if got := steadyQuantile(xs[:50], 0.5); got != quantile(append([]float64(nil), xs[:50]...), 0.5) {
		t.Errorf("short input should give the plain quantile, got %v", got)
	}
	// Three scenarios, one stalled sample each: the medians ignore the
	// stalls, the quantile across scenarios keeps the costly one.
	groups := [][]float64{{1, 1, 50}, {2, 90, 2}, {10, 10, 10, 99}}
	if got := scenarioQuantile(groups, 1); got != 10 {
		t.Errorf("max across scenario medians = %v, want 10", got)
	}
	if got := scenarioQuantile(groups, 0.5); got != 2 {
		t.Errorf("median across scenario medians = %v, want 2", got)
	}
}

// TestSpeedometerScale checks that a timing is scaled by the median of
// the refWindow readings on either side of its start, fewer at the ends of
// the phase, and that one slow reading among them is outvoted.
func TestSpeedometerScale(t *testing.T) {
	t0 := time.Unix(0, 0)
	var ramp, burst speedometer // a host slowing down steadily; one burst
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		ramp.at, burst.at = append(ramp.at, at), append(burst.at, at)
		ramp.ref = append(ramp.ref, float64(i+1)*refNominalMS)
		burst.ref = append(burst.ref, refNominalMS)
	}
	burst.ref[10] = 9 * refNominalMS
	w := float64(refWindow)
	for _, c := range []struct {
		sp   *speedometer
		at   time.Duration
		want float64
	}{
		{&ramp, 9500 * time.Millisecond, 1 / 10.5}, // readings 10-w .. 9+w
		{&ramp, 10 * time.Second, 1 / 11.5},        // reading 10 started with it
		{&ramp, -time.Second, 2 / (w + 1)},         // the first w readings
		{&ramp, 30 * time.Second, 2 / (41 - w)},    // the last w readings
		{&burst, 9500 * time.Millisecond, 1},       // the slow reading is outvoted
		{&burst, 10500 * time.Millisecond, 1},      // from either side
	} {
		if got := c.sp.scale(t0.Add(c.at)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scale at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if got := burst.scaled(20*time.Millisecond, t0); got != 20 {
		t.Errorf("scaled = %v ms, want 20", got)
	}
}

// TestServeSession runs a short serving session on two connections and
// checks every answer, as serve-open does.
func TestServeSession(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and simulates for a few seconds")
	}
	cfg := serveConfig{
		workers:  2,
		closed:   200 * time.Millisecond,
		levels:   []level{{300, 300 * time.Millisecond}, {3000, 200 * time.Millisecond}},
		sweepDur: 300 * time.Millisecond,
	}
	rng := rand.New(rand.NewSource(1))
	cold, sweeps := coldPool(rng), sweepPoints(rng)
	ss, err := runSession(cfg, rng, &cold, &sweeps, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss.verify(2)
	if ss.failed != 0 {
		t.Fatalf("%d failed: %v", ss.failed, ss.errs)
	}
	hit, coldLat := ss.closedLatencies()
	if len(hit) == 0 || len(coldLat) == 0 || len(ss.sweepSpecs) == 0 {
		t.Fatalf("hits %d, cold %d, sweeps %d", len(hit), len(coldLat), len(ss.sweepSpecs))
	}
	m := map[string]float64{}
	ss.layerMetrics(m)
	if m["serve.hit_ratio"] <= 0 || m["serve.stage_ms_mean.run"] <= 0 {
		t.Errorf("serving figures missing: %v", m)
	}
}

// TestSweepPointsFork checks that every sweep point warms a checkpoint the
// way the service's pool does, captured before the first horizon, so the
// sweep phase measures forked cells, not cold runs.
func TestSweepPointsFork(t *testing.T) {
	for _, sp := range sweepCycle() {
		req := serve.Request{Mix: sp.Mixes[0], Policy: sp.Policies[0], PeriodMS: sp.PeriodMS, HorizonMS: 4 * sp.PeriodMS}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		sc, err := req.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		data, err := exp.RunToCheckpoint(context.Background(), sc, 2*sc.Period)
		if err != nil {
			t.Fatalf("%s %s: %v", req.Mix, req.Policy, err)
		}
		env, err := ckpt.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if first := sim.Time(sweepHorizons[0] * float64(sim.Millisecond)); sim.Time(env.CapturedPs) >= first {
			t.Errorf("%s %s: captured at %v, not before the first horizon %v", req.Mix, req.Policy, sim.Time(env.CapturedPs), first)
		}
	}
}
