package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"relief/internal/ckpt"
	"relief/internal/fault"
	"relief/internal/metrics"
	"relief/internal/sim"
	"relief/internal/workload"
	"relief/internal/xbar"
)

// periodicScenario is the checkpoint test grid's base point: a two-app mix
// released every 5 ms until 20 ms, which quiesces between iterations (each
// iteration's makespan is ~3.7 ms).
func periodicScenario(t *testing.T) Scenario {
	t.Helper()
	mix, err := workload.ParseMix("CG")
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Mix:        mix,
		Contention: workload.Contention(len(mix)),
		Policy:     "RELIEF",
		Period:     5 * sim.Millisecond,
		Horizon:    20 * sim.Millisecond,
	}
}

// summaryDoc renders the run summary document — the restore contract's unit
// of comparison (relief-sim stdout, the serving layer's Text field).
func summaryDoc(t *testing.T, sc Scenario, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteSummary(&b, sc, res.Stats); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// restoreIdentical asserts the heart of the checkpoint contract: warming sc
// to a checkpoint at warmAt, restoring, and running to the horizon yields a
// summary document byte-identical to an uninterrupted cold run.
func restoreIdentical(t *testing.T, sc Scenario, warmAt sim.Time) {
	t.Helper()
	ctx := context.Background()
	env, err := RunToCheckpoint(ctx, sc, warmAt)
	if err != nil {
		t.Fatalf("RunToCheckpoint: %v", err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatalf("ckpt.Open: %v", err)
	}
	if opened.Key != ScenarioKey(sc) || opened.ForkKey != ForkKey(sc) {
		t.Fatalf("envelope keys: key=%q fork=%q", opened.Key, opened.ForkKey)
	}
	warm, err := RunFromCheckpoint(ctx, sc, opened)
	if err != nil {
		t.Fatalf("RunFromCheckpoint: %v", err)
	}
	cold, err := Run(sc)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if w, c := summaryDoc(t, sc, warm), summaryDoc(t, sc, cold); w != c {
		t.Errorf("restored run diverged from cold run (captured at %v):\nwarm:\n%s\ncold:\n%s",
			sim.Time(opened.CapturedPs), w, c)
	}
}

// TestCheckpointRestoreGrid pins restore byte-identity across the platform
// knobs whose state the checkpoint carries: the scheduling policy, the
// crossbar interconnect, the bank-level DRAM controller, a stateful
// bandwidth predictor, and the base configuration.
func TestCheckpointRestoreGrid(t *testing.T) {
	base := periodicScenario(t)
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"base", func(sc *Scenario) {}},
		{"fcfs", func(sc *Scenario) { sc.Policy = "FCFS" }},
		{"crossbar", func(sc *Scenario) { sc.Topology = xbar.Crossbar }},
		{"detailed-dram", func(sc *Scenario) { sc.DetailedDRAM = true }},
		{"ewma-predictor", func(sc *Scenario) { sc.BWPredictor = "ewma" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.mutate(&sc)
			restoreIdentical(t, sc, 8*sim.Millisecond)
		})
	}
}

// TestCheckpointRestoreWithFaults covers the fault injector's PRNG draw
// position: the restored injector must continue the random sequence exactly
// where the warm run left it, including scripted instance deaths on either
// side of the capture instant (satellite: fault-plan round-trip).
func TestCheckpointRestoreWithFaults(t *testing.T) {
	cases := []struct {
		name    string
		plan    *fault.Plan
		warm    sim.Time
		horizon sim.Time
	}{
		// Stochastic plans keep iterations busy longer (retries, slowdowns),
		// so not every release instant quiesces; a longer horizon leaves the
		// capture room to land at a later release.
		{"profile", fault.Profile(0.02, 7), 15 * sim.Millisecond, 40 * sim.Millisecond},
		{"death-before-capture", &fault.Plan{Seed: 3, DieAt: map[int]sim.Time{0: 2 * sim.Millisecond}}, 8 * sim.Millisecond, 0},
		{"death-after-capture", &fault.Plan{Seed: 3, DieAt: map[int]sim.Time{0: 12 * sim.Millisecond}}, 8 * sim.Millisecond, 0},
		{"slow-tasks", &fault.Plan{Seed: 42, Rates: fault.Rates{TaskSlow: 0.15, SlowFactor: 4}}, 8 * sim.Millisecond, 100 * sim.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := periodicScenario(t)
			sc.Faults = tc.plan
			if tc.horizon > 0 {
				sc.Horizon = tc.horizon
			}
			restoreIdentical(t, sc, tc.warm)
		})
	}
}

// TestCheckpointMetricsNeutral asserts the capture itself is bit-neutral:
// warming with a metrics registry attached (probe events consume kernel
// sequence numbers but read state only) and restoring yields the same
// summary as a plain cold run without metrics (satellite: metrics
// round-trip).
func TestCheckpointMetricsNeutral(t *testing.T) {
	ctx := context.Background()
	sc := periodicScenario(t)

	metricised := sc
	metricised.Metrics = metrics.NewRegistry()
	metricised.MetricsInterval = sc.Period
	env, err := RunToCheckpoint(ctx, metricised, 8*sim.Millisecond)
	if err != nil {
		t.Fatalf("metricised RunToCheckpoint: %v", err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunFromCheckpoint(ctx, sc, opened)
	if err != nil {
		t.Fatalf("RunFromCheckpoint: %v", err)
	}
	cold, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if w, c := summaryDoc(t, sc, warm), summaryDoc(t, sc, cold); w != c {
		t.Errorf("metricised warm + restore diverged from plain cold run:\nwarm:\n%s\ncold:\n%s", w, c)
	}
}

// TestCheckpointHorizonFork pins the fork-key contract: one checkpoint
// captured under a 20 ms horizon restores bit-identically into runs with
// any horizon beyond its capture instant, because pending future releases
// cannot affect earlier state.
func TestCheckpointHorizonFork(t *testing.T) {
	ctx := context.Background()
	sc := periodicScenario(t)
	env, err := RunToCheckpoint(ctx, sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, horizon := range []sim.Time{15 * sim.Millisecond, 25 * sim.Millisecond, 40 * sim.Millisecond} {
		fork := sc
		fork.Horizon = horizon
		warm, err := RunFromCheckpoint(ctx, fork, opened)
		if err != nil {
			t.Fatalf("fork to %v: %v", horizon, err)
		}
		cold, err := Run(fork)
		if err != nil {
			t.Fatal(err)
		}
		if w, c := summaryDoc(t, fork, warm), summaryDoc(t, fork, cold); w != c {
			t.Errorf("horizon fork %v diverged:\nwarm:\n%s\ncold:\n%s", horizon, w, c)
		}
	}
	// A horizon at or before the capture instant has nothing left to run.
	tooShort := sc
	tooShort.Horizon = sim.Time(opened.CapturedPs)
	if _, err := RunFromCheckpoint(ctx, tooShort, opened); err == nil {
		t.Error("fork to a horizon at the capture instant should fail")
	}
}

// TestCheckpointEnvelopeTamper pins the envelope integrity checks: payload
// corruption, schema drift, and malformed framing are all rejected.
func TestCheckpointEnvelopeTamper(t *testing.T) {
	sc := periodicScenario(t)
	env, err := RunToCheckpoint(context.Background(), sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Open(env); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}

	tampered := bytes.Replace(env, []byte(`"payload":"`), []byte(`"payload":"AAAA`), 1)
	if bytes.Equal(tampered, env) {
		t.Fatal("tamper did not change the envelope")
	}
	if _, err := ckpt.Open(tampered); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("payload tamper: err=%v, want checksum mismatch", err)
	}

	wrongSchema := bytes.Replace(env, []byte(ckpt.Schema), []byte("relief-ckpt/9"), 1)
	if _, err := ckpt.Open(wrongSchema); err == nil {
		t.Error("unknown schema accepted")
	}

	if _, err := ckpt.Open([]byte("not json")); err == nil {
		t.Error("malformed envelope accepted")
	}
}

// TestCheckpointRequiresPeriodic pins the mode restrictions: checkpointing
// is periodic-only, and tracing cannot cross a checkpoint.
func TestCheckpointRequiresPeriodic(t *testing.T) {
	ctx := context.Background()
	sc := periodicScenario(t)

	aperiodic := sc
	aperiodic.Period = 0
	if _, err := RunToCheckpoint(ctx, aperiodic, 8*sim.Millisecond); err == nil {
		t.Error("aperiodic RunToCheckpoint should fail")
	}

	env, err := RunToCheckpoint(ctx, sc, 8*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFromCheckpoint(ctx, aperiodic, opened); err == nil {
		t.Error("aperiodic RunFromCheckpoint should fail")
	}

	// A scenario differing in more than the horizon has a different fork key.
	other := sc
	other.Policy = "FCFS"
	if _, err := RunFromCheckpoint(ctx, other, opened); err == nil {
		t.Error("fork-key mismatch accepted")
	}
}

// TestCheckpointRefusesOtherPlatform: the platform is part of the fork key,
// so a checkpoint warmed on one platform cannot seed a run on another (here
// the default), which would otherwise resume from state that platform never
// reached.
func TestCheckpointRefusesOtherPlatform(t *testing.T) {
	mix, err := workload.ParseMix("C")
	if err != nil {
		t.Fatal(err)
	}
	plain := Scenario{Mix: mix, Contention: workload.Low, Policy: "RELIEF",
		Period: 10 * sim.Millisecond, Horizon: 60 * sim.Millisecond}
	slow := plain
	slow.Platform = &PlatformSpec{BusGBs: 3, DRAMGBs: 2}
	if ScenarioKey(slow) == ScenarioKey(plain) {
		t.Error("scenarios differing only in Platform share a key")
	}
	ctx := context.Background()
	env, err := RunToCheckpoint(ctx, slow, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := ckpt.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFromCheckpoint(ctx, plain, opened); err == nil || !strings.Contains(err.Error(), "fork key mismatch") {
		t.Errorf("restore without the platform: err=%v, want a fork key mismatch", err)
	}
	if _, err := RunFromCheckpoint(ctx, slow, opened); err != nil {
		t.Errorf("restore on the checkpoint's own platform: %v", err)
	}
}
