package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"relief/internal/accel"
	"relief/internal/dram"
	"relief/internal/manager"
	"relief/internal/mem"
	"relief/internal/predict"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/xbar"
)

// PlatformSpec is a JSON-loadable platform description, playing the role
// of gem5's configuration scripts: accelerator instance counts, scratchpad
// buffering, interconnect, memory system, and manager cost model. Zero
// fields keep the paper's defaults (Table VI).
type PlatformSpec struct {
	// Instances maps accelerator names (e.g. "elem-matrix") to instance
	// counts.
	Instances map[string]int `json:"instances,omitempty"`
	// OutputPartitions is the per-accelerator output buffering (default 2).
	OutputPartitions int `json:"output_partitions,omitempty"`
	// Topology is "bus" (default) or "xbar".
	Topology string `json:"topology,omitempty"`
	// BusGBs and DRAMGBs override the link/memory bandwidths (GB/s).
	BusGBs  float64 `json:"bus_gbs,omitempty"`
	DRAMGBs float64 `json:"dram_gbs,omitempty"`
	// DetailedDRAM enables the bank-level LPDDR5 controller;
	// DRAMPolicy is "fr-fcfs" (default) or "fcfs"; DRAMChannels > 1 adds
	// interleaved channels.
	DetailedDRAM bool   `json:"detailed_dram,omitempty"`
	DRAMPolicy   string `json:"dram_policy,omitempty"`
	DRAMChannels int    `json:"dram_channels,omitempty"`
	// BWPredictor is "max" (default), "last", "average", or "ewma";
	// PredictDM enables the graph-analysis data-movement predictor.
	BWPredictor string `json:"bw_predictor,omitempty"`
	PredictDM   bool   `json:"predict_dm,omitempty"`
	// DisableForwarding turns the forwarding hardware off.
	DisableForwarding bool `json:"disable_forwarding,omitempty"`
	// SchedBaseNS / SchedPerScanNS override the manager's modeled
	// microcontroller cost (nanoseconds).
	SchedBaseNS    float64 `json:"sched_base_ns,omitempty"`
	SchedPerScanNS float64 `json:"sched_per_scan_ns,omitempty"`
}

// LoadPlatform parses a PlatformSpec from JSON, rejecting unknown fields.
func LoadPlatform(r io.Reader) (*PlatformSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p PlatformSpec
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("exp: platform spec: %w", err)
	}
	return &p, nil
}

// Apply folds the spec into a manager configuration built around policy.
// It is the one place platform knobs become a manager.Config: scenarios
// without a Platform, the relief facade and the extension studies all
// describe their platform as a PlatformSpec and call it.
func (p *PlatformSpec) Apply(policy sched.Policy) (manager.Config, error) {
	cfg := manager.DefaultConfig(policy)
	for name, n := range p.Instances {
		found := false
		for _, k := range accel.AllKinds() {
			if k.String() == name {
				if n < 1 {
					return cfg, fmt.Errorf("exp: instances[%s] = %d", name, n)
				}
				cfg.Instances[k] = n
				found = true
			}
		}
		if !found {
			return cfg, fmt.Errorf("exp: unknown accelerator %q", name)
		}
	}
	if p.OutputPartitions > 0 {
		cfg.OutputPartitions = p.OutputPartitions
	}
	switch p.Topology {
	case "", "bus":
	case "xbar":
		cfg.Interconnect.Topology = xbar.Crossbar
	default:
		return cfg, fmt.Errorf("exp: unknown topology %q", p.Topology)
	}
	if p.BusGBs > 0 {
		cfg.Interconnect.BusBandwidth = p.BusGBs * mem.GB
	}
	if p.DRAMGBs > 0 {
		cfg.Interconnect.DRAMBandwidth = p.DRAMGBs * mem.GB
	}
	cfg.DetailedDRAM = p.DetailedDRAM
	switch p.DRAMPolicy {
	case "", "fr-fcfs":
	case "fcfs":
		cfg.DRAMPolicy = dram.FCFS
	default:
		return cfg, fmt.Errorf("exp: unknown dram policy %q", p.DRAMPolicy)
	}
	if p.DRAMChannels > 1 && !p.DetailedDRAM {
		return cfg, fmt.Errorf("exp: dram_channels requires detailed_dram")
	}
	cfg.DRAMChannels = p.DRAMChannels
	bw, err := predict.NewBW(p.BWPredictor, cfg.Interconnect.DRAMBandwidth)
	if err != nil {
		return cfg, err
	}
	cfg.BW = bw
	if p.PredictDM {
		cfg.DM = predict.DMPredict
	}
	cfg.DisableForwarding = p.DisableForwarding
	if p.SchedBaseNS > 0 {
		cfg.SchedBase = sim.Time(p.SchedBaseNS * float64(sim.Nanosecond))
	}
	if p.SchedPerScanNS > 0 {
		cfg.SchedPerScan = sim.Time(p.SchedPerScanNS * float64(sim.Nanosecond))
	}
	return cfg, nil
}

// appendKey appends the spec's canonical encoding (see ScenarioKey): its
// JSON, in which encoding/json fixes the field order, sorts the instance
// names, and omits zero fields, so the bytes round-trip through
// LoadPlatform.
func (p *PlatformSpec) appendKey(b []byte) []byte {
	j, err := json.Marshal(p)
	if err != nil {
		// Only non-finite floats fail to marshal, and no JSON input can
		// carry them; the Go syntax still tells such specs apart.
		return fmt.Appendf(b, "%#v", *p)
	}
	return append(b, j...)
}
