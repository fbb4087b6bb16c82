// relief-sim runs a single scheduling scenario and prints its metrics.
//
// Usage:
//
//	relief-sim -mix CGL -policy RELIEF
//	relief-sim -mix CDH -policy LAX -continuous
//	relief-sim -mix GHL -policy RELIEF -topology xbar -bw average
//
// Periodic workloads can be checkpointed once warm and resumed or forked
// later (docs/CHECKPOINT.md):
//
//	relief-sim -mix CG -period 5ms -horizon 20ms -warm 8ms -checkpoint warm.ckpt
//	relief-sim -mix CG -period 5ms -horizon 40ms -restore warm.ckpt
//	relief-sim -mix CG -period 5ms -horizon 200ms -sample 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"relief/internal/ckpt"
	"relief/internal/exp"
	"relief/internal/metrics"
	"relief/internal/serve"
	"relief/internal/sim"
	"relief/internal/trace"
)

func main() {
	// The scenario flags fill a /run body (docs/SERVING.md), so both map
	// onto a scenario through the same Normalize and Scenario.
	var req serve.Request
	flag.StringVar(&req.Mix, "mix", "CGL", "application mix, e.g. C, CD, CGL (C=canny D=deblur G=gru H=harris L=lstm)")
	flag.StringVar(&req.Policy, "policy", "RELIEF", "scheduling policy (FCFS, GEDF-D, GEDF-N, LL, LAX, HetSched, RELIEF, RELIEF-LAX)")
	flag.StringVar(&req.Topology, "topology", "bus", "interconnect topology: bus or xbar")
	flag.StringVar(&req.BW, "bw", "max", "bandwidth predictor: max, last, average, ewma")
	flag.BoolVar(&req.PredictDM, "predict-dm", false, "use the graph-analysis data-movement predictor")
	flag.BoolVar(&req.Continuous, "continuous", false, "run applications in a loop until the 50ms horizon")
	flag.BoolVar(&req.NoForwarding, "no-forwarding", false, "disable forwarding hardware")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file")
	statsOut := flag.String("stats-out", "", "write gem5-style statistics to this file")
	platformFile := flag.String("platform", "", "JSON platform spec (overrides -topology, -bw, -predict-dm and -no-forwarding)")
	flag.Float64Var(&req.FaultRate, "faults", 0, "fault-injection rate in [0,1] (0 = off); see docs/FAULTS.md")
	flag.Int64Var(&req.FaultSeed, "fault-seed", 1, "fault-injection PRNG seed")
	metricsOut := flag.String("metrics", "", "collect telemetry and write <prefix>.csv, <prefix>.json, <prefix>.prom")
	metricsInterval := flag.Duration("metrics-interval", 0, "probe sampling period in simulated time (0 = 50us default)")
	period := flag.Duration("period", 0, "periodic release interval in simulated time (0 = off): a fresh instance of each mix app is released every period until -horizon")
	horizon := flag.Duration("horizon", 0, "periodic release cutoff in simulated time (requires -period; 0 = 50ms default)")
	ckptOut := flag.String("checkpoint", "", "warm the periodic scenario and write a relief-ckpt/1 envelope to this file (requires -period; see docs/CHECKPOINT.md)")
	warm := flag.Duration("warm", 0, "earliest capture instant for -checkpoint: the snapshot lands at the first quiescent release at or after this")
	restoreIn := flag.String("restore", "", "resume from a checkpoint envelope instead of a cold start (requires -period and a scenario matching the checkpoint's fork key)")
	sample := flag.Int("sample", 0, "estimate whole-run statistics from N steady-state sampling windows instead of a full run (requires -period); writes a relief-estimate/1 JSON document to stdout")
	flag.Parse()

	if *period <= 0 && (*ckptOut != "" || *restoreIn != "" || *sample > 0) {
		fatal(fmt.Errorf("-checkpoint/-restore/-sample require a periodic workload (-period)"))
	}
	req.PeriodMS = float64(*period) / float64(time.Millisecond)
	req.HorizonMS = float64(*horizon) / float64(time.Millisecond)
	if err := req.Normalize(); err != nil {
		fatal(err)
	}
	sc, err := req.Scenario()
	if err != nil {
		fatal(err)
	}
	if *platformFile != "" {
		f, err := os.Open(*platformFile)
		if err != nil {
			fatal(err)
		}
		spec, err := exp.LoadPlatform(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sc.Platform = spec
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder()
		sc.Trace = rec
	}
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		sc.Metrics = reg
		sc.MetricsInterval = sim.Time(metricsInterval.Nanoseconds()) * sim.Nanosecond
	}

	ctx := context.Background()
	if *sample > 0 {
		est, err := exp.RunSampled(ctx, sc, *sample)
		if err != nil {
			fatal(err)
		}
		if err := exp.WriteEstimate(os.Stdout, est); err != nil {
			fatal(err)
		}
		return
	}
	if *ckptOut != "" {
		warmAt := sim.Time(warm.Nanoseconds()) * sim.Nanosecond
		env, err := exp.RunToCheckpoint(ctx, sc, warmAt)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*ckptOut, env, 0o644); err != nil {
			fatal(err)
		}
		opened, err := ckpt.Open(env)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint:          captured at %v, %d bytes written to %s\n",
			sim.Time(opened.CapturedPs), len(env), *ckptOut)
		return
	}

	var res *exp.Result
	if *restoreIn != "" {
		data, err := os.ReadFile(*restoreIn)
		if err != nil {
			fatal(err)
		}
		env, err := ckpt.Open(data)
		if err != nil {
			fatal(err)
		}
		res, err = exp.RunFromCheckpoint(ctx, sc, env)
		if err != nil {
			fatal(err)
		}
	} else {
		res, err = exp.Run(sc)
		if err != nil {
			fatal(err)
		}
	}
	st := res.Stats
	if err := exp.WriteSummary(os.Stdout, sc, st); err != nil {
		fatal(err)
	}

	if *statsOut != "" {
		f, err := os.Create(*statsOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := st.WriteGem5Style(f); err != nil {
			fatal(err)
		}
		fmt.Printf("stats:               written to %s\n", *statsOut)
	}

	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:               %d events written to %s\n", rec.Len(), *traceOut)
	}

	if reg != nil {
		printAttribution(reg)
		exportMetrics(reg, *metricsOut)
	}
}

// printAttribution renders the per-app latency decomposition collected by
// the metrics registry.
func printAttribution(reg *metrics.Registry) {
	a := reg.Attribution()
	fmt.Println()
	fmt.Println("latency attribution (% of summed node latency, ready to finish):")
	fmt.Printf("  %-8s %6s %7s %7s %7s %7s %7s\n",
		"app", "nodes", "wait%", "dma%", "stall%", "comp%", "wb%")
	row := func(name string, b *metrics.AttrBucket) {
		wait, pure, stall, comp, wb := b.Shares()
		fmt.Printf("  %-8s %6d %7.1f %7.1f %7.1f %7.1f %7.1f\n",
			name, b.Nodes, wait, pure, stall, comp, wb)
	}
	names := make([]string, 0, len(a.Apps))
	for n := range a.Apps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row(n, a.Apps[n])
	}
	row("TOTAL", &a.Total)
	if h := reg.FindHistogram("relief_node_latency_us"); h != nil && h.Count() > 0 {
		fmt.Printf("  node latency us: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
	}
}

// exportMetrics writes the three export formats under the given prefix.
func exportMetrics(reg *metrics.Registry, prefix string) {
	write := func(suffix string, fn func(w *os.File) error) {
		f, err := os.Create(prefix + suffix)
		if err != nil {
			fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	write(".csv", func(f *os.File) error { return reg.WriteCSV(f) })
	write(".json", func(f *os.File) error { return reg.WriteJSON(f) })
	write(".prom", func(f *os.File) error { return reg.WritePrometheus(f) })
	fmt.Printf("metrics:             %d probe samples written to %s.{csv,json,prom}\n",
		reg.Samples(), prefix)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "relief-sim: %v\n", err)
	os.Exit(1)
}
