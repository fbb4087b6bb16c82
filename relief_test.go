package relief_test

import (
	"math"
	"testing"

	"relief"
)

func TestBuildWorkloadNames(t *testing.T) {
	for _, name := range []string{"canny", "deblur", "gru", "harris", "lstm"} {
		d, err := relief.BuildWorkload(name)
		if err != nil {
			t.Fatalf("BuildWorkload(%q): %v", name, err)
		}
		if d.App != name || len(d.Nodes) == 0 {
			t.Fatalf("BuildWorkload(%q) returned %q with %d nodes", name, d.App, len(d.Nodes))
		}
	}
	if _, err := relief.BuildWorkload("pacman"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"FCFS", "GEDF-D", "GEDF-N", "LL", "LAX", "HetSched", "RELIEF", "RELIEF-LAX"} {
		p, err := relief.PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	// The ablation variants are RELIEF configurations named by their study.
	for _, name := range []string{"RELIEF-NoFeas", "RELIEF-Unbounded", "RELIEF-HetSched"} {
		if _, err := relief.PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := relief.PolicyByName("bogus"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	for _, app := range []string{"canny", "gru"} {
		d, err := relief.BuildWorkload(app)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Submit(d, 0); err != nil {
			t.Fatal(err)
		}
	}
	rep := sys.Run()
	if rep.NodesDone != 13+114 {
		t.Fatalf("NodesDone = %d, want 127", rep.NodesDone)
	}
	if rep.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
	if rep.Edges == 0 || rep.Forwards+rep.Colocations > rep.Edges {
		t.Fatalf("edge accounting wrong: %d/%d/%d", rep.Edges, rep.Forwards, rep.Colocations)
	}
	if rep.DRAMEnergyJ <= 0 || rep.SPADEnergyJ <= 0 {
		t.Fatal("energy not accounted")
	}
	for _, app := range []string{"canny", "gru"} {
		a, ok := rep.Apps[app]
		if !ok || a.Iterations != 1 {
			t.Fatalf("app %s report missing or wrong: %+v", app, a)
		}
		if math.IsInf(a.Slowdown, 1) || a.Slowdown <= 0 {
			t.Fatalf("app %s slowdown = %v", app, a.Slowdown)
		}
	}
	fwd, col := rep.ForwardsPerEdge()
	if fwd < 0 || col < 0 || fwd+col > 100 {
		t.Fatalf("ForwardsPerEdge = (%v, %v)", fwd, col)
	}
}

func TestSystemDefaultsToRELIEF(t *testing.T) {
	sys := relief.NewSystem(relief.Config{})
	d, _ := relief.BuildWorkload("canny")
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Run(); rep.NodesDone != 13 {
		t.Fatal("default system did not run")
	}
}

func TestSystemRunTwicePanics(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "FCFS"})
	d, _ := relief.BuildWorkload("canny")
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	sys.Run()
}

func TestSystemInvalidPolicyErr(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "nope"})
	if sys.Err() == nil {
		t.Fatal("invalid policy name not reported by Err")
	}
	d, _ := relief.BuildWorkload("canny")
	if err := sys.Submit(d, 0); err == nil {
		t.Fatal("Submit on broken system did not fail")
	}
	if r := sys.Run(); r == nil || r.NodesDone != 0 {
		t.Fatal("broken system must return an empty report")
	}
}

func TestSubmitLoopAndRunFor(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	err := sys.SubmitLoop(func() *relief.DAG {
		d, err := relief.BuildWorkload("gru")
		if err != nil {
			panic(err)
		}
		return d
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.RunFor(30 * relief.Millisecond)
	if rep.Apps["gru"].Iterations < 2 {
		t.Fatalf("continuous GRU finished %d iterations in 30ms, want >= 2", rep.Apps["gru"].Iterations)
	}
	if rep.Makespan != 30*relief.Millisecond {
		t.Errorf("Makespan = %v, want the horizon", rep.Makespan)
	}
}

func TestConfigKnobs(t *testing.T) {
	// Crossbar + extra elem-matrix instances + predictors + partitions.
	sys := relief.NewSystem(relief.Config{
		Policy:              "RELIEF",
		Crossbar:            true,
		Instances:           map[relief.Kind]int{relief.ElemMatrix: 2},
		OutputPartitions:    3,
		BandwidthPredictor:  "average",
		PredictDataMovement: true,
	})
	d, _ := relief.BuildWorkload("gru")
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run()
	if rep.NodesDone != 114 {
		t.Fatalf("NodesDone = %d", rep.NodesDone)
	}
}

func TestDisableForwardingConfig(t *testing.T) {
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF", DisableForwarding: true})
	d, _ := relief.BuildWorkload("canny")
	if err := sys.Submit(d, 0); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run()
	if rep.Forwards != 0 || rep.Colocations != 0 {
		t.Fatal("forwarding happened while disabled")
	}
}

func TestCustomDAGConstruction(t *testing.T) {
	d := relief.NewDAG("mypipe", "M", 5*relief.Millisecond)
	src := d.AddNode("src", relief.Convolution, relief.OpDefault, 65536)
	src.ExtraInputBytes = 65536
	src.FilterSize = 3
	d.AddNode("post", relief.ElemMatrix, relief.OpSigmoid, 65536, src)
	sys := relief.NewSystem(relief.Config{Policy: "RELIEF"})
	if err := sys.Submit(d, relief.Millisecond); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run()
	if rep.NodesDone != 2 || rep.Forwards != 1 {
		t.Fatalf("custom DAG: done=%d fwd=%d, want 2/1", rep.NodesDone, rep.Forwards)
	}
	if d.Release != relief.Millisecond {
		t.Errorf("release = %v, want 1ms", d.Release)
	}
}
