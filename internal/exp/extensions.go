package exp

import (
	"fmt"

	"relief/internal/accel"
	"relief/internal/design"
	"relief/internal/graph"
	"relief/internal/manager"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
	"relief/internal/xbar"
)

// DRAMStudy is an extension experiment beyond the paper: it swaps the
// calibrated fixed-bandwidth main-memory model for the bank-level LPDDR5
// controller and compares FR-FCFS against FCFS memory scheduling under
// high contention, for LAX and RELIEF. It checks that the paper's policy
// ordering is robust to the memory-model fidelity (the substitution
// argument in DESIGN.md) and quantifies how much RELIEF's traffic
// reduction also relieves the row-buffer.
func DRAMStudy(s *Sweep) (*Table, error) {
	t := &Table{
		Title: "Extension: memory-model fidelity (high contention)",
		Note:  "simple = calibrated bandwidth server; detailed = bank-level LPDDR5; makespan in ms",
		Cols: []string{"mix",
			"LAX simple", "LAX fr-fcfs", "LAX fcfs",
			"RELIEF simple", "RELIEF fr-fcfs", "RELIEF fcfs",
			"RELIEF hit-rate", "RELIEF dl%% (detailed)"},
	}
	var sumSimple, sumDetail float64
	err := forEachMix(workload.High, func(mix []workload.App, name string) error {
		row := []string{name}
		var reliefDetail *Result
		for _, p := range []string{"LAX", "RELIEF"} {
			for _, variant := range []Scenario{
				{Mix: mix, Contention: workload.High, Policy: p},
				{Mix: mix, Contention: workload.High, Policy: p, DetailedDRAM: true},
				{Mix: mix, Contention: workload.High, Policy: p, DetailedDRAM: true, DRAMFCFS: true},
			} {
				res, err := s.Get(variant)
				if err != nil {
					return err
				}
				row = append(row, f2(res.Stats.Makespan.Milliseconds()))
				if p == "RELIEF" && variant.DetailedDRAM && !variant.DRAMFCFS {
					reliefDetail = res
				}
				if p == "RELIEF" && !variant.DetailedDRAM {
					sumSimple += res.Stats.Makespan.Milliseconds()
				}
			}
		}
		sumDetail += reliefDetail.Stats.Makespan.Milliseconds()
		row = append(row, f2(reliefDetail.RowHitRate),
			f1(reliefDetail.Stats.NodeDeadlinePct()))
		t.AddRow(row...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Note += fmt.Sprintf("; RELIEF makespan detailed/simple = %.2f", sumDetail/sumSimple)
	return t, nil
}

// PeriodicStudy is an extension experiment: instead of the paper's
// completion-triggered continuous loop, applications arrive on their
// natural periods (vision at 60 FPS = 16.6 ms, RNN streams at their 7 ms
// deadline) over a 50 ms window — the frame-queue arrival pattern of a
// real camera/ASR pipeline. Reported per policy: frames finished, frame
// deadlines met, and worst per-app slowdown.
func PeriodicStudy() (*Table, error) {
	t := &Table{
		Title: "Extension: periodic (FPS) arrivals, CGL and CDH mixes, 50 ms",
		Note:  "cells: finished / deadlines-met / worst app slowdown",
	}
	t.Cols = append(t.Cols, "mix")
	t.Cols = append(t.Cols, FairnessPolicyNames...)
	for _, mixName := range []string{"CGL", "CDH", "CDG"} {
		mix, err := workload.ParseMix(mixName)
		if err != nil {
			return nil, err
		}
		row := []string{mixName}
		for _, pname := range FairnessPolicyNames {
			st, err := runPeriodic(pname, mix)
			if err != nil {
				return nil, err
			}
			finished, met := 0, 0
			worst, anyStarved := 0.0, false
			for _, a := range st.Apps {
				finished += a.Iterations
				met += a.DeadlinesMet
				s, ok := a.FiniteSlowdown()
				if !ok {
					// A starved app's slowdown is undefined, not a number to
					// compare: flag it instead of letting +Inf win the max.
					anyStarved = true
					continue
				}
				if s > worst {
					worst = s
				}
			}
			cell := f2(worst)
			if anyStarved {
				cell = "starved"
			}
			row = append(row, fmt.Sprintf("%d/%d/%s", finished, met, cell))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func runPeriodic(policyName string, mix []workload.App) (*stats.Stats, error) {
	policy, err := NewPolicy(policyName)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	st := stats.New()
	m := manager.New(k, manager.DefaultConfig(policy), st)
	for _, app := range mix {
		app := app
		if err := m.SubmitPeriodic(func() *graph.DAG { return workload.MustBuild(app) },
			app.Deadline(), workload.ContinuousHorizon); err != nil {
			return nil, err
		}
	}
	m.RunContinuous(workload.ContinuousHorizon)
	return st, nil
}

// TiledStudy is an extension experiment probing the paper's §V-H
// expectation: "we expect applications with more varied resource needs and
// larger input sizes to benefit more from complex interconnects." It runs
// 256x256 inputs chunked into four 128x128 tiles (GAM+-style composition)
// on a platform with two instances of each accelerator, where tile-level
// parallelism creates concurrent producer/consumer pairs that a crossbar
// can serve simultaneously.
func TiledStudy() (*Table, error) {
	t := &Table{
		Title: "Extension: 256x256 tiled inputs (4 tiles, 2 instances/kind), RELIEF",
		Note:  "makespan per topology; xbar gain = bus/xbar",
		Cols:  []string{"mix", "bus (ms)", "xbar (ms)", "xbar gain", "bus occ%", "xbar occ%"},
	}
	for _, mixName := range []string{"C", "CH", "CHL", "CDH", "GL", "GHL"} {
		mix, err := workload.ParseMix(mixName)
		if err != nil {
			return nil, err
		}
		var mk [2]sim.Time
		var occ [2]float64
		for i, topo := range []xbar.Topology{xbar.Bus, xbar.Crossbar} {
			st, occupancy, err := runTiled(mix, topo)
			if err != nil {
				return nil, err
			}
			mk[i] = st.Makespan
			occ[i] = occupancy
		}
		t.AddRow(mixName, f2(mk[0].Milliseconds()), f2(mk[1].Milliseconds()),
			f2(float64(mk[0])/float64(mk[1])), f1(100*occ[0]), f1(100*occ[1]))
	}
	return t, nil
}

func runTiled(mix []workload.App, topo xbar.Topology) (*stats.Stats, float64, error) {
	k := sim.NewKernel()
	st := stats.New()
	cfg, err := uniformPlatform(2, topo).Apply(mustPolicy("RELIEF"))
	if err != nil {
		return nil, 0, err
	}
	m := manager.New(k, cfg, st)
	for _, app := range mix {
		d, err := workload.BuildTiled(app, 2, 4)
		if err != nil {
			return nil, 0, err
		}
		if err := m.Submit(d, 0, nil); err != nil {
			return nil, 0, err
		}
	}
	m.Run()
	return st, m.Interconnect().Occupancy(), nil
}

// uniformPlatform describes a platform with n instances of every
// accelerator kind on the given interconnect.
func uniformPlatform(n int, topo xbar.Topology) *PlatformSpec {
	spec := &PlatformSpec{Instances: make(map[string]int), Topology: topo.String()}
	for _, k := range accel.AllKinds() {
		spec.Instances[k.String()] = n
	}
	return spec
}

func mustPolicy(name string) sched.Policy {
	p, err := NewPolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}

// EnergyStudy is an extension of the paper's Fig. 6: a whole-SoC energy
// breakdown that adds accelerator datapath energy (from the min-ED^2
// designs of internal/design) to the memory energies the paper reports.
// Compute energy is schedule-invariant (the same tasks run under every
// policy), so the study quantifies how much of the total a scheduler can
// actually influence.
func EnergyStudy(s *Sweep) (*Table, error) {
	// Per-task datapath energy of each accelerator's chosen design.
	taskEnergy := make(map[int]float64)
	for _, k := range design.Kernels() {
		taskEnergy[int(k.Kind)] = design.Choose(k, design.DefaultSpace()).EnergyJ
	}
	t := &Table{
		Title: "Extension: whole-SoC energy (high contention, uJ)",
		Note:  "accel = datapath energy of min-ED^2 designs; memory energies as in Fig. 6",
		Cols: []string{"mix", "accel",
			"LAX dram", "LAX spad", "RELIEF dram", "RELIEF spad",
			"RELIEF/LAX total"},
	}
	err := forEachMix(workload.High, func(mix []workload.App, name string) error {
		// Datapath energy: node counts per kind are policy-invariant.
		var accelE float64
		for _, app := range mix {
			for _, n := range workload.MustBuild(app).Nodes {
				e := taskEnergy[int(n.Kind)]
				// Scale for non-5x5 convolutions like the timing model.
				if n.FilterSize > 0 && n.FilterSize != 5 {
					e = e * float64(n.FilterSize*n.FilterSize) / 25
				}
				accelE += e
			}
		}
		lax, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "LAX"})
		if err != nil {
			return err
		}
		rel, err := s.Get(Scenario{Mix: mix, Contention: workload.High, Policy: "RELIEF"})
		if err != nil {
			return err
		}
		ld, ls := lax.Stats.MemoryEnergy()
		rd, rs := rel.Stats.MemoryEnergy()
		ratio := (accelE + rd + rs) / (accelE + ld + ls)
		t.AddRow(name, f1(accelE*1e6), f1(ld*1e6), f1(ls*1e6),
			f1(rd*1e6), f1(rs*1e6), f2(ratio))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ScalingStudy is an extension experiment: how do makespan and forwarding
// behave as the platform grows from one to four instances of every
// accelerator? More instances raise max_forwards (RELIEF can escalate more
// children) but spread producers and consumers across scratchpads, turning
// colocations into forwards.
func ScalingStudy() (*Table, error) {
	t := &Table{
		Title: "Extension: instance scaling under RELIEF",
		Cols:  []string{"mix", "makespan(ms)", "instances/kind", "fwd%", "col%", "occupancy"},
	}
	for _, mixName := range []string{"GL", "CGL", "CDH"} {
		mix, err := workload.ParseMix(mixName)
		if err != nil {
			return nil, err
		}
		for _, per := range []int{1, 2, 4} {
			res, err := Run(Scenario{Mix: mix, Contention: workload.Contention(len(mix)), Policy: "RELIEF",
				Platform: uniformPlatform(per, xbar.Bus)})
			if err != nil {
				return nil, err
			}
			st := res.Stats
			fwd, col := st.ForwardsPerEdge()
			t.AddRow(mixName, f2(st.Makespan.Milliseconds()),
				fmt.Sprintf("%d", per), f1(fwd), f1(col), f2(st.Occupancy()))
		}
	}
	return t, nil
}
