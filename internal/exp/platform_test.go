package exp

import (
	"bytes"
	"strings"
	"testing"

	"relief/internal/accel"
	"relief/internal/dram"
	"relief/internal/manager"
	"relief/internal/mem"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
	"relief/internal/xbar"
)

func TestLoadPlatform(t *testing.T) {
	spec, err := LoadPlatform(strings.NewReader(`{
		"instances": {"elem-matrix": 3},
		"output_partitions": 3,
		"topology": "xbar",
		"bus_gbs": 20,
		"dram_gbs": 8,
		"detailed_dram": true,
		"dram_policy": "fcfs",
		"dram_channels": 2,
		"bw_predictor": "average",
		"predict_dm": true,
		"sched_base_ns": 200
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Apply(mustPolicy("RELIEF"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Instances[accel.ElemMatrix] != 3 || cfg.Instances[accel.ISP] != 1 {
		t.Error("instance overrides wrong")
	}
	if cfg.OutputPartitions != 3 {
		t.Error("partitions not applied")
	}
	if cfg.Interconnect.Topology != xbar.Crossbar {
		t.Error("topology not applied")
	}
	if cfg.Interconnect.BusBandwidth != 20*mem.GB || cfg.Interconnect.DRAMBandwidth != 8*mem.GB {
		t.Error("bandwidths not applied")
	}
	if !cfg.DetailedDRAM || cfg.DRAMPolicy != dram.FCFS || cfg.DRAMChannels != 2 {
		t.Error("DRAM settings not applied")
	}
	if cfg.BW.Name() != "Average" {
		t.Error("predictor not applied")
	}
	// The manager sizes the crossbar to the instance total (3 EM + 6
	// others): the last instance has a port.
	m := manager.New(sim.NewKernel(), cfg, stats.New())
	if n := len(m.Instances()); n != 9 {
		t.Fatalf("instances = %d, want 9", n)
	}
	if p := m.Interconnect().Path(8, xbar.EndpointDRAM); len(p) != 2 {
		t.Errorf("path from the last instance = %v", p)
	}
}

func TestLoadPlatformRejects(t *testing.T) {
	cases := []string{
		`{"bogus_field": 1}`,
		`{"instances": {"warp-drive": 1}}`,
		`{"instances": {"elem-matrix": 0}}`,
		`{"topology": "torus"}`,
		`{"dram_policy": "random"}`,
		`{"dram_channels": 2}`, // without detailed_dram
	}
	for _, c := range cases {
		spec, err := LoadPlatform(strings.NewReader(c))
		if err != nil {
			continue // rejected at parse time (unknown field)
		}
		if _, err := spec.Apply(mustPolicy("RELIEF")); err == nil {
			t.Errorf("spec %s accepted", c)
		}
	}
}

func TestPlatformScenarioRuns(t *testing.T) {
	spec := &PlatformSpec{
		Instances:    map[string]int{"elem-matrix": 2},
		DetailedDRAM: true,
	}
	mix, _ := workload.ParseMix("GL")
	res, err := Run(Scenario{Mix: mix, Contention: workload.Medium, Policy: "RELIEF", Platform: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesDone != 114+134 {
		t.Fatalf("nodes done = %d", res.Stats.NodesDone)
	}
	if res.RowHitRate == 0 {
		t.Error("detailed DRAM stats missing")
	}
	// Two EM instances must beat one on makespan for the all-EM mix.
	base, err := Run(Scenario{Mix: mix, Contention: workload.Medium, Policy: "RELIEF"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Makespan >= base.Stats.Makespan {
		t.Errorf("2 EM instances (%v) not faster than 1 (%v)",
			res.Stats.Makespan, base.Stats.Makespan)
	}
}

// FuzzPlatform feeds arbitrary platform JSON through LoadPlatform and Apply,
// which must never panic, and checks that the spec's canonical key JSON
// loads back to the same key. Seeds are under testdata/fuzz/FuzzPlatform.
func FuzzPlatform(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadPlatform(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = spec.Apply(mustPolicy("RELIEF")) // only a panic fails
		key := spec.appendKey(nil)
		again, err := LoadPlatform(bytes.NewReader(key))
		if err != nil {
			t.Fatalf("canonical key %s does not load: %v", key, err)
		}
		if k := again.appendKey(nil); !bytes.Equal(k, key) {
			t.Fatalf("canonical key changed on reload:\n  %s\n  %s", key, k)
		}
	})
}
