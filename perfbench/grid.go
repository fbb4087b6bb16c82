package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"relief/internal/exp"
	"relief/internal/workload"
)

// gridScenarios enumerates a grid workload's fixed scenario set: every mix
// of its contention levels under the eight fairness-study policies.
func gridScenarios(name string) []exp.Scenario {
	var levels []workload.Contention
	detailed := false
	switch name {
	case "grid-paper":
		levels = []workload.Contention{workload.Low, workload.Medium, workload.High}
	case "grid-continuous":
		levels = []workload.Contention{workload.Continuous}
	case "dram-bank":
		levels = []workload.Contention{workload.High}
		detailed = true
	}
	var out []exp.Scenario
	for _, lvl := range levels {
		for _, mix := range workload.Mixes(lvl) {
			for _, p := range exp.FairnessPolicyNames {
				out = append(out, exp.Scenario{Mix: mix, Contention: lvl, Policy: p, DetailedDRAM: detailed})
			}
		}
	}
	return out
}

// sample is one scenario's outcome within a pass.
type sample struct {
	rec       record
	at        time.Time     // when exp.Run started
	simDur    time.Duration // exp.Run
	resultDur time.Duration // encoding the finished result
	err       error
}

// runFunc simulates and encodes one scenario.
type runFunc func(sc exp.Scenario) sample

func runPlain(sc exp.Scenario) sample {
	t0 := time.Now()
	res, err := exp.Run(sc)
	t1 := time.Now()
	if err != nil {
		return sample{at: t0, simDur: t1.Sub(t0), err: err}
	}
	rec, err := encode(sc, res)
	return sample{rec: rec, at: t0, simDur: t1.Sub(t0), resultDur: time.Since(t1), err: err}
}

// runPass runs every scenario once, in the given order, on workers
// goroutines, and returns the samples indexed like scs.
func runPass(scs []exp.Scenario, order []int, workers int, run runFunc) []sample {
	out := make([]sample, len(scs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = run(scs[i])
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// gridPhase is the outcome of running whole passes for a while.
type gridPhase struct {
	passes, scenarios int
	failed            int64
	// simMS and resultMS hold each scenario's exp.Run and encoding times,
	// one per pass, indexed like the scenario set, scaled to the nominal
	// host.
	simMS, resultMS [][]float64
	rt0, rt1        rtStat
	cpuS            float64   // process CPU time
	last            []record  // the last pass's records
	passRate        []float64 // scenarios per second of each pass, scaled
	speed           speedometer
	passPeakMB      []float64 // peak live heap of each pass
	errs            []string
}

// runGridPhase repeats passes over scs on one goroutine, each in a fresh
// seeded order, until at least d has elapsed at a pass boundary. It reads
// the host's speed every readEvery between scenarios and after each pass.
// Every pass's digest is checked against the pin; a mismatching pass
// counts all its scenarios as failed.
func runGridPhase(name string, scs []exp.Scenario, rng *rand.Rand, d time.Duration, run runFunc) *gridPhase {
	ph := &gridPhase{simMS: make([][]float64, len(scs)), resultMS: make([][]float64, len(scs))}
	runtime.GC() // every phase starts from a collected heap
	ph.rt0 = readRuntime()
	cpu0 := cpuSeconds()
	peak := startHeapPeak()
	sp := &ph.speed
	start := time.Now()
	for time.Since(start) < d || ph.passes == 0 {
		samples := make([]sample, len(scs))
		took := make([]time.Duration, len(scs))
		for _, i := range rng.Perm(len(scs)) {
			sp.readIfDue()
			t := time.Now()
			samples[i] = run(scs[i])
			took[i] = time.Since(t)
		}
		sp.read()
		passMS := 0.0
		for i, s := range samples {
			passMS += sp.scaled(took[i], s.at)
		}
		ph.passRate = append(ph.passRate, 1e3*float64(len(scs))/passMS)
		ph.passPeakMB = append(ph.passPeakMB, peak.take())
		recs := make([]record, 0, len(samples))
		bad := int64(0)
		for i, s := range samples {
			ph.simMS[i] = append(ph.simMS[i], sp.scaled(s.simDur, s.at))
			if s.err != nil {
				bad++
				ph.errs = append(ph.errs, s.err.Error())
				continue
			}
			ph.resultMS[i] = append(ph.resultMS[i], sp.scaled(s.resultDur, s.at))
			recs = append(recs, s.rec)
		}
		if err := checkPin(name, digest(recs)); err != nil {
			bad = int64(len(scs))
			ph.errs = append(ph.errs, err.Error())
		}
		ph.failed += bad
		ph.passes++
		ph.scenarios += len(scs)
		ph.last = recs
	}
	ph.cpuS = cpuSeconds() - cpu0
	peak.done()
	ph.rt1 = readRuntime()
	return ph
}

// gridSetup is the work before the timed phase: enumerate the scenario
// set and warm the simulator (code paths, allocator size classes, heap
// growth) on one scenario of each mix.
func gridSetup(name string) ([]exp.Scenario, error) {
	scs := gridScenarios(name)
	for i := 0; i < len(scs); i += len(exp.FairnessPolicyNames) {
		if s := runPlain(scs[i]); s.err != nil {
			return nil, s.err
		}
	}
	return scs, nil
}

// runGrid measures a grid workload with one worker. With nproc (two)
// workers on a shared 2-vCPU host, the interquartile spread of
// grid-continuous scenarios_per_s between runs was about 0.25, against
// 0.09–0.15 unscaled with one: two workers measured how often the host
// left both vCPUs free, and the reference kernel, which runs on one
// thread, follows one worker's speed, not two workers'.
func runGrid(name string, seed int64, seconds float64) (*outcome, error) {
	var setups []float64
	var scs []exp.Scenario
	var sp speedometer
	sp.read()
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		var err error
		if scs, err = gridSetup(name); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t)
		sp.read()
		setups = append(setups, sp.scaled(d, t)/1e3)
	}
	rng := rand.New(rand.NewSource(seed))
	ph := runGridPhase(name, scs, rng, secondsDur(seconds), runPlain)
	o := &outcome{attempted: int64(ph.scenarios), failed: ph.failed, errs: ph.errs}
	if err := selfTestFlip(ph.last); err != nil {
		o.errs = append(o.errs, err.Error())
		o.invalid = true
	}
	alloc := float64(ph.rt1.allocBytes-ph.rt0.allocBytes-ph.speed.allocBytes) / 1e6
	o.metrics = map[string]float64{
		"setup_s":               median(setups),
		"scenarios_per_s":       median(ph.passRate),
		"scenario_ms_p50":       scenarioQuantile(ph.simMS, 0.50),
		"scenario_ms_p90":       scenarioQuantile(ph.simMS, 0.90),
		"result_ms_p50":         scenarioQuantile(ph.resultMS, 0.50),
		"result_ms_p90":         scenarioQuantile(ph.resultMS, 0.90),
		"alloc_mb_per_scenario": alloc / float64(ph.scenarios),
		"peak_heap_mb":          median(ph.passPeakMB),
		"cpu_ms_per_scenario":   1e3 * ph.cpuS / float64(ph.scenarios),
		"ref_kernel_ms":         ph.speed.median(),
	}
	o.notes = map[string]any{"passes": ph.passes, "workers": 1, "scenarios": ph.scenarios,
		"pass_rates": ph.passRate}
	return o, nil
}

// runGridTraced is the traced run: one worker, 40% of the time untraced
// and 40% traced, then a short serving session; the caller adds the layer
// probes. The untraced half gives the runtime
// figures and the baseline for the tracing overhead; the traced half must
// reproduce the pinned digests with the benchmark's copy of exp.RunContext.
func runGridTraced(name string, seed int64, seconds float64, t0 time.Time) (*outcome, []*recorder, error) {
	scs, err := gridSetup(name)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	half := secondsDur(seconds * 0.4)
	plain := runGridPhase(name, scs, rng, half, runPlain)

	rec := newRecorder(t0)
	var counts runCounts
	traced := runGridPhase(name, scs, rng, half, func(sc exp.Scenario) sample {
		rec.id = exp.ScenarioKey(sc)
		root := rec.begin("scenario")
		defer rec.end(root)
		t0 := time.Now()
		res, rc, err := runTraced(context.Background(), rec, sc)
		t1 := time.Now()
		if err != nil {
			return sample{at: t0, simDur: t1.Sub(t0), err: err}
		}
		counts.add(rc)
		r, _, err := encodeTraced(rec, sc, res)
		return sample{rec: r, at: t0, simDur: t1.Sub(t0), resultDur: time.Since(t1), err: err}
	})

	o := &outcome{
		attempted: int64(plain.scenarios + traced.scenarios),
		failed:    plain.failed + traced.failed,
		errs:      append(plain.errs, traced.errs...),
		metrics:   map[string]float64{},
	}
	o.metrics["bench.trace_overhead_pct"] = 100 * (median(plain.passRate)/median(traced.passRate) - 1)
	runtimeMetrics(o.metrics, plain.rt0, plain.rt1, &plain.speed, plain.scenarios)
	spanMetrics(o.metrics, summarize(rec), counts)
	o.notes = map[string]any{"untraced_passes": plain.passes, "traced_passes": traced.passes}

	// The grid workloads do not serve; a short serving session gives the
	// serving layer's figures.
	ss, err := serveProbe(seed)
	if err != nil {
		return nil, nil, err
	}
	o.attempted += ss.attempted
	o.failed += ss.failed
	o.errs = append(o.errs, ss.errs...)
	ss.layerMetrics(o.metrics)
	return o, []*recorder{rec}, nil
}

// encodeTraced is encode with a span around each encoding step. It also
// returns the cell itself, which the traced service runner answers with.
func encodeTraced(rec *recorder, sc exp.Scenario, res *exp.Result) (record, exp.Cell, error) {
	s := rec.begin("exp.key")
	key := exp.ScenarioKey(sc)
	rec.end(s)
	s = rec.begin("exp.cell")
	cell := exp.NewCell(key, res)
	cb, err := json.Marshal(cell)
	rec.end(s)
	if err != nil {
		return record{}, cell, err
	}
	var text bytes.Buffer
	s = rec.begin("exp.summary")
	err = exp.WriteSummary(&text, sc, res.Stats)
	rec.end(s)
	return record{key: key, cell: cb, text: text.Bytes()}, cell, err
}

// runtimeMetrics derives the runtime figures from readings a and b,
// leaving out what the speed readings between them allocated.
func runtimeMetrics(m map[string]float64, a, b rtStat, sp *speedometer, scenarios int) {
	n := float64(scenarios)
	m["runtime.allocs_per_scenario"] = float64(b.allocObjects-a.allocObjects-sp.allocObjects) / n
	m["runtime.gc_cycles"] = float64(b.gcCycles-a.gcCycles) / n
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_pct"] = 100 * (b.gcCPU - a.gcCPU) / cpu
	}
}

// spanMetrics derives the per-layer figures of the simulation layers from
// a traced phase's spans and counters.
func spanMetrics(m map[string]float64, ls map[string]*layer, c runCounts) {
	n := float64(c.runs)
	get := func(name string) *layer {
		if l := ls[name]; l != nil {
			return l
		}
		return &layer{}
	}
	per := func(v, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(v) / float64(d)
	}
	run := get("manager.run")
	m["sim.events"] = float64(c.fired) / n
	m["sim.ns_per_event"] = per(run.busy, int64(c.fired))
	m["sim.cancel_ratio"] = per(int64(c.scheduled-c.fired), int64(c.scheduled))
	m["mem.claims"] = float64(c.claims) / n
	m["mem.claim_conflict_ratio"] = per(c.conflicts, c.claims)
	m["manager.new_ns"] = per(get("manager.new").busy, get("manager.new").calls)
	m["manager.run_ns"] = per(run.self, run.calls)
	m["manager.ns_per_node"] = per(run.self, int64(c.nodes))
	ins, esc := get("sched.insert"), get("core.enqueue_ready")
	calls := ins.calls + esc.calls
	m["sched.insert_calls"] = float64(calls) / n
	m["sched.insert_ns"] = per(ins.busy+esc.busy, calls)
	m["sched.scanned_per_insert"] = per(ins.scanned+esc.scanned, calls)
	m["core.escalations"] = float64(esc.escal) / n
	b := get("workload.build")
	m["workload.builds"] = float64(b.calls) / n
	m["workload.build_ns"] = per(b.busy, b.calls)
	m["workload.build_allocs"] = per(int64(b.allocs), b.calls)
	for _, name := range []string{"exp.key", "exp.cell", "exp.summary"} {
		l := get(name)
		m[name+"_ns"] = per(l.self, l.calls)
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
