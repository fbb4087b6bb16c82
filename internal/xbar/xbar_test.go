package xbar

import (
	"testing"

	"relief/internal/mem"
	"relief/internal/sim"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(7)
	if cfg.Topology != Bus {
		t.Errorf("default topology = %v, want bus", cfg.Topology)
	}
	if cfg.BusBandwidth != 14.9*mem.GB {
		t.Errorf("bus bandwidth = %v, want 14.9 GB/s", cfg.BusBandwidth)
	}
	if cfg.DRAMBandwidth != 6.4*mem.GB {
		t.Errorf("dram bandwidth = %v, want 6.4 GB/s", cfg.DRAMBandwidth)
	}
}

func TestTopologyString(t *testing.T) {
	if Bus.String() != "bus" || Crossbar.String() != "xbar" {
		t.Error("topology names wrong")
	}
}

func TestBusPaths(t *testing.T) {
	k := sim.NewKernel()
	ic := New(k, DefaultConfig(3))
	// DRAM -> SPAD traverses dram then bus.
	p := ic.Path(EndpointDRAM, 1)
	if len(p) != 2 || p[0] != ic.DRAM() || p[1].Name() != "bus" {
		t.Errorf("dram->spad path wrong: %v", names(p))
	}
	// SPAD -> DRAM traverses bus then dram.
	p = ic.Path(1, EndpointDRAM)
	if len(p) != 2 || p[0].Name() != "bus" || p[1] != ic.DRAM() {
		t.Errorf("spad->dram path wrong: %v", names(p))
	}
	// SPAD -> SPAD stays on the bus.
	p = ic.Path(0, 2)
	if len(p) != 1 || p[0].Name() != "bus" {
		t.Errorf("spad->spad path wrong: %v", names(p))
	}
}

func TestCrossbarPaths(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Topology = Crossbar
	ic := New(sim.NewKernel(), cfg)
	p := ic.Path(0, 2)
	if len(p) != 2 || p[0].Name() != "port0" || p[1].Name() != "port2" {
		t.Errorf("xbar spad->spad path wrong: %v", names(p))
	}
	p = ic.Path(EndpointDRAM, 1)
	if len(p) != 2 || p[0] != ic.DRAM() || p[1].Name() != "port1" {
		t.Errorf("xbar dram->spad path wrong: %v", names(p))
	}
	p = ic.Path(2, EndpointDRAM)
	if len(p) != 2 || p[0].Name() != "port2" || p[1] != ic.DRAM() {
		t.Errorf("xbar spad->dram path wrong: %v", names(p))
	}
}

func names(rs []mem.Server) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Name())
	}
	return out
}

// TestCrossbarParallelism: two disjoint producer/consumer transfers run
// concurrently on the crossbar but serialise on the bus.
func TestCrossbarParallelism(t *testing.T) {
	run := func(topo Topology) sim.Time {
		cfg := DefaultConfig(4)
		cfg.Topology = topo
		cfg.BusBandwidth = 1 * mem.GB
		k := sim.NewKernel()
		ic := New(k, cfg)
		const bytes = 64 * mem.DefaultChunkBytes
		done := 0
		var end sim.Time
		for _, pair := range [][2]int{{0, 1}, {2, 3}} {
			mem.StartTransfer(k, ic.Path(pair[0], pair[1]), bytes, 0, func(tr mem.TransferResult) {
				done++
				if tr.End > end {
					end = tr.End
				}
			})
		}
		k.Run()
		if done != 2 {
			t.Fatalf("%v: %d transfers completed, want 2", topo, done)
		}
		return end
	}
	busEnd := run(Bus)
	xbarEnd := run(Crossbar)
	if xbarEnd*18/10 > busEnd {
		t.Errorf("crossbar (%v) not meaningfully faster than bus (%v) for disjoint pairs", xbarEnd, busEnd)
	}
}

func TestOccupancyUnion(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BusBandwidth = 1 * mem.GB
	k := sim.NewKernel()
	ic := New(k, cfg)
	const bytes = 1000 // 1us on the bus
	mem.StartTransfer(k, ic.Path(0, 1), bytes, 0, func(mem.TransferResult) {})
	k.Run()
	// Let the clock idle past the transfer to dilute occupancy 50%.
	k.Schedule(1*sim.Microsecond, func() {})
	k.Run()
	occ := ic.Occupancy()
	if occ < 0.45 || occ > 0.55 {
		t.Errorf("occupancy = %v, want ~0.5", occ)
	}
}

func TestOccupancyZeroAtStart(t *testing.T) {
	ic := New(sim.NewKernel(), DefaultConfig(1))
	if ic.Occupancy() != 0 {
		t.Error("occupancy nonzero before any event")
	}
}

// TestPathDoesNotAllocate: every endpoint pair's path is built once by New,
// so Path is a table lookup that allocates nothing and hands every caller
// the same read-only slice, which cannot be grown into a neighbour's.
func TestPathDoesNotAllocate(t *testing.T) {
	for _, topo := range []Topology{Bus, Crossbar} {
		cfg := DefaultConfig(7)
		cfg.Topology = topo
		ic := New(sim.NewKernel(), cfg)
		allocs := testing.AllocsPerRun(100, func() {
			for src := EndpointDRAM; src < 7; src++ {
				for dst := EndpointDRAM; dst < 7; dst++ {
					_ = ic.Path(src, dst)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: Path allocated %.1f times per sweep of all pairs, want 0", topo, allocs)
		}
		p, q := ic.Path(EndpointDRAM, 3), ic.Path(EndpointDRAM, 3)
		if &p[0] != &q[0] {
			t.Errorf("%v: Path returned two different slices for one pair", topo)
		}
		if cap(p) != len(p) {
			t.Errorf("%v: path cap %d > len %d; an append would overwrite the next path", topo, cap(p), len(p))
		}
	}
}

func TestPathOutOfRangePanics(t *testing.T) {
	ic := New(sim.NewKernel(), DefaultConfig(3))
	for _, pair := range [][2]int{{3, 0}, {0, 3}, {-2, 0}, {EndpointDRAM, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Path(%d, %d) on 3 instances did not panic", pair[0], pair[1])
				}
			}()
			ic.Path(pair[0], pair[1])
		}()
	}
}
