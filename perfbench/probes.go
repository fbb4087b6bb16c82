package main

import (
	"context"
	"fmt"
	"time"

	"relief/internal/ckpt"
	"relief/internal/dram"
	"relief/internal/exp"
	"relief/internal/mem"
	"relief/internal/serve"
	"relief/internal/sim"
	"relief/internal/workload"
	"relief/internal/xbar"
)

// The layer probes call one layer's public functions directly, in batches
// long enough that the timer and the runtime's allocation counters (which
// move in whole allocator spans) are accurate per call. They run on every
// traced run, whatever the workload, so their figures compare across
// workloads and commits.

// batch times calls of f, n per round, for at least minDur, and returns
// nanoseconds and heap objects per call.
func batch(n int, minDur time.Duration, f func()) (nsPerCall, allocsPerCall float64) {
	ac := newAllocCounter()
	var calls int
	start := time.Now()
	a0, _ := ac.read()
	for calls == 0 || time.Since(start) < minDur {
		for i := 0; i < n; i++ {
			f()
		}
		calls += n
	}
	el := time.Since(start)
	a1, _ := ac.read()
	return float64(el.Nanoseconds()) / float64(calls), float64(a1-a0) / float64(calls)
}

const probeDur = 150 * time.Millisecond

// probeTransfers drives mem.StartTransfer plus Kernel.Run over one- to
// four-stage paths of fixed-bandwidth links: alone on an idle path (the
// analytic claim path), and as two transfers contending for the same path
// (claims fold back to chunk-wise service).
func probeTransfers(m map[string]float64) {
	const bytes = 64 << 10
	done := func(mem.TransferResult) {}
	run := func(stages, streams int) func() {
		k := sim.NewKernel()
		path := make([]mem.Server, stages)
		for s := range path {
			path[s] = mem.NewResource(k, fmt.Sprintf("link%d", s), 14.9*mem.GB)
		}
		return func() {
			for i := 0; i < streams; i++ {
				mem.StartTransfer(k, path, bytes, 200*sim.Nanosecond, done)
			}
			k.Run()
		}
	}
	var claimedNS, chunkedNS, allocs float64
	for stages := 1; stages <= 4; stages++ {
		ns, a := batch(100, probeDur/8, run(stages, 1))
		claimedNS += ns / 4
		allocs += a / 8
		ns, a = batch(20, probeDur/8, run(stages, 2))
		chunkedNS += ns / 2 / 4
		allocs += a / 2 / 8
	}
	m["mem.transfer_claimed_ns"] = claimedNS
	m["mem.transfer_chunked_ns"] = chunkedNS
	m["mem.transfer_allocs"] = allocs
}

// probePaths times Interconnect.Path over every endpoint pair of the
// paper's platform, on the bus and on the crossbar.
func probePaths(m map[string]float64) {
	k := sim.NewKernel()
	var ics []*xbar.Interconnect
	for _, topo := range []xbar.Topology{xbar.Bus, xbar.Crossbar} {
		cfg := xbar.DefaultConfig(7)
		cfg.Topology = topo
		ics = append(ics, xbar.New(k, cfg))
	}
	pairs := 0
	for src := xbar.EndpointDRAM; src < 7; src++ {
		for dst := xbar.EndpointDRAM; dst < 7; dst++ {
			if src != dst {
				pairs++
			}
		}
	}
	ns, allocs := batch(100, probeDur, func() {
		for _, ic := range ics {
			for src := xbar.EndpointDRAM; src < 7; src++ {
				for dst := xbar.EndpointDRAM; dst < 7; dst++ {
					if src != dst {
						ic.Path(src, dst)
					}
				}
			}
		}
	})
	per := float64(pairs * len(ics))
	m["xbar.path_ns"] = ns / per
	m["xbar.path_allocs"] = allocs / per
}

// probeDRAM runs bursts of interleaved reads through the bank-level LPDDR5
// controller and reports host time per KB served and the row-hit rate.
func probeDRAM(m map[string]float64) {
	const reqs, size = 64, 16 << 10
	var hit float64
	ns, _ := batch(4, probeDur, func() {
		k := sim.NewKernel()
		c := dram.NewController(k, "dram", dram.LPDDR5())
		for i := 0; i < reqs; i++ {
			c.Enqueue(size, func() {})
		}
		k.Run()
		hit = c.RowHitRate()
	})
	m["dram.host_ns_per_kb"] = ns / (reqs * size / 1024)
	m["dram.row_hit_rate"] = hit
}

// probeRequests times serve.Request.Normalize and Digest over the hot set.
func probeRequests(m map[string]float64) {
	reqs := hotSet()
	i := 0
	m["serve.normalize_ns"], _ = batch(1000, probeDur, func() {
		r := reqs[i%len(reqs)]
		i++
		_ = r.Normalize() // hot-set requests are valid
	})
	norm := make([]serve.Request, len(reqs))
	for j, r := range reqs {
		_ = r.Normalize() // hot-set requests are valid
		norm[j] = r
	}
	m["serve.digest_ns"], _ = batch(1000, probeDur, func() {
		norm[i%len(norm)].Digest()
		i++
	})
}

// probeCheckpoint warms a periodic scenario to a checkpoint and restores
// it once for a longer horizon.
func probeCheckpoint(m map[string]float64) error {
	mix, err := workload.ParseMix("CG")
	if err != nil {
		return err
	}
	sc := exp.Scenario{Mix: mix, Contention: workload.Medium, Policy: "RELIEF",
		Period: 5 * sim.Millisecond, Horizon: 20 * sim.Millisecond}
	var data []byte
	var capErr, resErr error
	m["ckpt.capture_ns"], _ = batch(1, probeDur, func() {
		if data, err = exp.RunToCheckpoint(context.Background(), sc, 10*sim.Millisecond); err != nil {
			capErr = err
		}
	})
	if capErr != nil {
		return fmt.Errorf("checkpoint probe: %w", capErr)
	}
	env, err := ckpt.Open(data)
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	long := sc
	long.Horizon = 40 * sim.Millisecond
	m["ckpt.restore_ns"], _ = batch(1, probeDur, func() {
		if _, err := exp.RunFromCheckpoint(context.Background(), long, env); err != nil {
			resErr = err
		}
	})
	if resErr != nil {
		return fmt.Errorf("restore probe: %w", resErr)
	}
	m["ckpt.envelope_kb"] = float64(len(data)) / 1e3
	return nil
}

// runProbes runs every layer probe.
func runProbes(m map[string]float64) error {
	probeTransfers(m)
	probePaths(m)
	probeDRAM(m)
	probeRequests(m)
	return probeCheckpoint(m)
}
