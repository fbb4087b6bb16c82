// Package exp is the evaluation harness: it runs scheduling scenarios
// (application mix x contention level x policy x platform knobs) and
// regenerates every table and figure of the paper's evaluation section.
package exp

import (
	"context"
	"fmt"

	"relief/internal/core"
	"relief/internal/fault"
	"relief/internal/graph"
	"relief/internal/manager"
	"relief/internal/metrics"
	"relief/internal/predict"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/trace"
	"relief/internal/workload"
	"relief/internal/xbar"
)

// PolicyNames lists the six policies of the main comparison (Figs. 4-8) in
// the paper's plotting order.
var PolicyNames = []string{"FCFS", "GEDF-D", "GEDF-N", "LAX", "HetSched", "RELIEF"}

// FairnessPolicyNames adds LL and RELIEF-LAX for the QoS/fairness study
// (Figs. 9-10, Table VII).
var FairnessPolicyNames = []string{"FCFS", "GEDF-D", "GEDF-N", "LAX", "RELIEF-LAX", "LL", "HetSched", "RELIEF"}

// NewPolicy constructs a scheduling policy by its paper name.
func NewPolicy(name string) (sched.Policy, error) {
	switch name {
	case "FCFS":
		return sched.FCFS{}, nil
	case "GEDF-D":
		return sched.GEDFD{}, nil
	case "GEDF-N":
		return sched.GEDFN{}, nil
	case "LL":
		return sched.LL{}, nil
	case "LAX":
		return sched.LAX{}, nil
	case "HetSched":
		return sched.HetSched{}, nil
	case "RELIEF":
		return core.New(), nil
	case "RELIEF-LAX":
		return core.NewLAX(), nil
	case "RELIEF-NoFeas":
		return &core.RELIEF{Base: sched.LL{}, DisableFeasibility: true}, nil
	case "RELIEF-Unbounded":
		return &core.RELIEF{Base: sched.LL{}, UnboundedForwards: true}, nil
	case "RELIEF-HetSched":
		return &core.RELIEF{Base: sched.HetSched{}}, nil
	}
	return nil, fmt.Errorf("exp: unknown policy %q", name)
}

// Scenario describes one simulation.
type Scenario struct {
	Mix        []workload.App
	Contention workload.Contention
	Policy     string
	Topology   xbar.Topology
	// BWPredictor is "max", "last", "average", or "ewma" ("" = max).
	BWPredictor string
	DM          predict.DMMode
	// DisableForwarding runs without forwarding hardware (Table II).
	DisableForwarding bool
	// AlwaysWriteBack disables deferred write-back (ablation).
	AlwaysWriteBack bool
	// OutputPartitions overrides the double-buffered default (ablation).
	OutputPartitions int
	// Trace, if non-nil, records the simulation timeline.
	Trace *trace.Recorder
	// Metrics, if non-nil, collects simulated-time telemetry and latency
	// attribution (internal/metrics). Like Trace, it is excluded from the
	// sweep cache key: metricised runs must call Run directly, not Sweep.
	Metrics *metrics.Registry
	// MetricsInterval overrides the probe period (0 = 50 µs default).
	MetricsInterval sim.Time
	// DetailedDRAM uses the bank-level LPDDR5 controller; DRAMFCFS demotes
	// its scheduler from FR-FCFS to FCFS (extension study).
	DetailedDRAM bool
	DRAMFCFS     bool
	// Faults, if non-nil, installs deterministic fault injection and the
	// recovery machinery (resilience study). A zero-rate plan is
	// timing-neutral: results are bit-identical to no plan.
	Faults *fault.Plan
	// Platform, if non-nil, fully determines the platform configuration
	// (instances, interconnect, memory, predictors); the scenario's other
	// platform toggles are ignored.
	Platform *PlatformSpec
	// Period, if positive, selects periodic release: a fresh instance of
	// every mix application is released each period until Horizon,
	// regardless of completion (frame-queue arrivals). Periodic scenarios
	// take precedence over Contention and are the only ones that can be
	// checkpointed (docs/CHECKPOINT.md): between iterations the simulation
	// passes through quiescent instants.
	Period sim.Time
	// Horizon is the periodic-release cutoff (0 = the continuous-contention
	// default, 50 ms). Ignored unless Period > 0.
	Horizon sim.Time
}

// EffectiveHorizon returns the periodic run cutoff.
func (sc *Scenario) EffectiveHorizon() sim.Time {
	if sc.Horizon > 0 {
		return sc.Horizon
	}
	return workload.ContinuousHorizon
}

// Result couples a scenario with its measured statistics.
type Result struct {
	Scenario Scenario
	Stats    *stats.Stats
	// End is the simulation end time.
	End sim.Time
	// RowHitRate is the DRAM row-buffer hit rate (detailed DRAM only).
	RowHitRate float64
}

// Run executes the scenario to completion (or the continuous-contention
// horizon) and returns its metrics.
func Run(sc Scenario) (*Result, error) {
	return RunContext(context.Background(), sc)
}

// RunContext is Run with cancellation: once ctx is cancelled or times out
// the simulation aborts promptly (the kernel polls the context every few
// thousand events) and the context's error is returned with a nil Result —
// an abandoned run never leaks partial statistics. This is the entry point
// the serving layer (internal/serve) drives.
func RunContext(ctx context.Context, sc Scenario) (*Result, error) {
	cfg, err := sc.managerConfig()
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	st := stats.New()
	m := manager.New(k, cfg, st)
	if err := submitMix(m, sc); err != nil {
		return nil, err
	}
	return finishRun(ctx, sc, k, m, st)
}

// managerConfig translates the scenario's platform knobs into a manager
// configuration (shared by cold runs, checkpoint warming, and restore —
// a restored run must rebuild exactly the platform the checkpoint saw).
func (sc *Scenario) managerConfig() (manager.Config, error) {
	policy, err := NewPolicy(sc.Policy)
	if err != nil {
		return manager.Config{}, err
	}
	spec := sc.Platform
	if spec == nil {
		spec = &PlatformSpec{
			Topology:          sc.Topology.String(),
			BWPredictor:       sc.BWPredictor,
			PredictDM:         sc.DM == predict.DMPredict,
			DisableForwarding: sc.DisableForwarding,
			OutputPartitions:  sc.OutputPartitions,
			DetailedDRAM:      sc.DetailedDRAM,
		}
		if sc.DRAMFCFS {
			spec.DRAMPolicy = "fcfs"
		}
	}
	cfg, err := spec.Apply(policy)
	if err != nil {
		return manager.Config{}, err
	}
	cfg.AlwaysWriteBack = sc.AlwaysWriteBack
	cfg.Fault = sc.Faults
	cfg.Trace = sc.Trace
	cfg.Metrics = sc.Metrics
	cfg.MetricsInterval = sc.MetricsInterval
	return cfg, nil
}

// submitMix registers the scenario's workload schedule with the manager: the
// periodic release grid when Period is set, otherwise one release of each
// mix application at t=0 (with continuous-contention rebuild closures when
// the scenario asks for them). A restored manager skips everything that
// completed before its capture instant.
func submitMix(m *manager.Manager, sc Scenario) error {
	if sc.Period > 0 {
		horizon := sc.EffectiveHorizon()
		for _, app := range sc.Mix {
			app := app
			build := func() *graph.DAG { return workload.MustBuild(app) }
			if err := m.SubmitPeriodic(build, sc.Period, horizon); err != nil {
				return err
			}
		}
		return nil
	}
	continuous := sc.Contention == workload.Continuous
	for _, app := range sc.Mix {
		app := app
		var rebuild func() *graph.DAG
		if continuous {
			rebuild = func() *graph.DAG { return workload.MustBuild(app) }
		}
		if err := m.Submit(workload.MustBuild(app), 0, rebuild); err != nil {
			return err
		}
	}
	return nil
}

// finishRun wires cancellation, drives the submitted simulation to its end,
// and assembles the result.
func finishRun(ctx context.Context, sc Scenario, k *sim.Kernel, m *manager.Manager, st *stats.Stats) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if done := ctx.Done(); done != nil {
		k.SetInterrupt(func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		})
	}
	var end sim.Time
	switch {
	case sc.Period > 0:
		end = m.RunContinuous(sc.EffectiveHorizon())
	case sc.Contention == workload.Continuous:
		end = m.RunContinuous(workload.ContinuousHorizon)
	default:
		end = m.Run()
	}
	if k.Interrupted() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("exp: run cancelled: %w", err)
		}
		return nil, fmt.Errorf("exp: run interrupted")
	}
	res := &Result{Scenario: sc, Stats: st, End: end}
	if dc := m.DRAMController(); dc != nil {
		res.RowHitRate = dc.RowHitRate()
	}
	return res, nil
}
