package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"relief/internal/dram"
	"relief/internal/exp"
	"relief/internal/graph"
	"relief/internal/manager"
	"relief/internal/predict"
	"relief/internal/sched"
	"relief/internal/sim"
	"relief/internal/stats"
	"relief/internal/workload"
)

// span is one timed interval at a layer boundary. High-frequency calls
// (policy insertions) are merged into one span per parent and name: Count
// says how many calls it stands for and Busy how long they took together,
// so a parent's self time stays exact without millions of records.
type span struct {
	Name    string `json:"name"`
	ID      string `json:"id,omitempty"` // scenario key or request digest
	Parent  int    `json:"parent"`       // index of the parent span, -1 for a root
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Busy    int64  `json:"busy_ns"`
	Count   int64  `json:"count"`
	Scanned int64  `json:"scanned,omitempty"` // queue entries a policy examined
	Escal   int64  `json:"escalated,omitempty"`
	Allocs  uint64 `json:"allocs,omitempty"` // heap objects allocated inside
	Bytes   uint64 `json:"bytes,omitempty"`

	objs0, bytes0 uint64 // allocation counters when the span opened
}

// recorder keeps one goroutine's spans in memory. Parents come from a stack
// of open spans, so a recorder must not be shared between goroutines.
type recorder struct {
	t0     time.Time
	id     string
	spans  []span
	stack  []int
	merged map[mergeKey]int // merged span index
	ac     *allocCounter
}

type mergeKey struct {
	parent int
	name   string
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, merged: map[mergeKey]int{}, ac: newAllocCounter()}
}

func (r *recorder) parent() int {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// begin opens a span under the innermost open span and reads the heap
// allocation counters at its boundary.
func (r *recorder) begin(name string) int {
	objs, bytes := r.ac.read()
	r.spans = append(r.spans, span{Name: name, ID: r.id, Parent: r.parent(), Start: int64(time.Since(r.t0)), Count: 1,
		objs0: objs, bytes0: bytes})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	objs, bytes := r.ac.read()
	s := &r.spans[i]
	s.End = int64(time.Since(r.t0))
	s.Busy = s.End - s.Start
	s.Allocs = objs - s.objs0
	s.Bytes = bytes - s.bytes0
	r.stack = r.stack[:len(r.stack)-1]
}

// merge adds one high-frequency call to the merged span of that name under
// the innermost open span.
func (r *recorder) merge(name string, start time.Time, d time.Duration, scanned, escalated int) {
	k := mergeKey{r.parent(), name}
	i, ok := r.merged[k]
	if !ok {
		r.spans = append(r.spans, span{Name: name, ID: r.id, Parent: k.parent, Start: int64(start.Sub(r.t0))})
		i = len(r.spans) - 1
		r.merged[k] = i
	}
	s := &r.spans[i]
	s.End = int64(start.Sub(r.t0) + d)
	s.Busy += int64(d)
	s.Count++
	s.Scanned += int64(scanned)
	s.Escal += int64(escalated)
}

// layer sums the spans of one name: calls, busy time, self time (busy time
// minus the time child spans cover) and allocations.
type layer struct {
	calls, busy, self int64
	scanned, escal    int64
	allocs, bytes     uint64
}

func summarize(recs ...*recorder) map[string]*layer {
	out := map[string]*layer{}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.Busy
			}
		}
		for i, s := range r.spans {
			l := out[s.Name]
			if l == nil {
				l = &layer{}
				out[s.Name] = l
			}
			l.calls += s.Count
			l.busy += s.Busy
			l.self += s.Busy - child[i]
			l.scanned += s.Scanned
			l.escal += s.Escal
			l.allocs += s.Allocs
			l.bytes += s.Bytes
		}
	}
	return out
}

// writeSpans writes every recorder's spans as JSON lines, one span a line,
// each tagged with its recorder ("thread").
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for t, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Thread int `json:"thread"`
				span
			}{t, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPolicy forwards to a scheduling policy and records each insertion
// as a merged sched.insert span.
type tracedPolicy struct {
	sched.Policy
	rec *recorder
}

func (p tracedPolicy) InsertPos(q []*graph.Node, n *graph.Node, now sim.Time) (int, int) {
	t := time.Now()
	pos, scanned := p.Policy.InsertPos(q, n, now)
	p.rec.merge("sched.insert", t, time.Since(t), scanned, 0)
	return pos, scanned
}

// tracedEscalator is tracedPolicy for policies that escalate forwarding
// (RELIEF): the manager detects sched.Escalator by type assertion, so the
// decorator must implement it exactly when the wrapped policy does.
type tracedEscalator struct {
	tracedPolicy
	esc sched.Escalator
}

func (p tracedEscalator) EnqueueReady(queues sched.Queues, ready []*graph.Node, idle func(k int) int, now sim.Time) (int, []*graph.Node) {
	t := time.Now()
	scanned, escalated := p.esc.EnqueueReady(queues, ready, idle, now)
	p.rec.merge("core.enqueue_ready", t, time.Since(t), scanned, len(escalated))
	return scanned, escalated
}

func tracePolicy(p sched.Policy, rec *recorder) sched.Policy {
	tp := tracedPolicy{Policy: p, rec: rec}
	if e, ok := p.(sched.Escalator); ok {
		return tracedEscalator{tracedPolicy: tp, esc: e}
	}
	return tp
}

// runCounts are the kernel and interconnect counters of one traced run.
type runCounts struct {
	runs              int
	fired, scheduled  uint64
	claims, conflicts int64
	nodes             int
}

func (c *runCounts) add(o runCounts) {
	c.runs += o.runs
	c.fired += o.fired
	c.scheduled += o.scheduled
	c.claims += o.claims
	c.conflicts += o.conflicts
	c.nodes += o.nodes
}

// runTraced is a copy of exp.RunContext assembled from public pieces, with
// spans around manager construction, submission, the run, every workload
// build, and every policy call. It covers the scenarios the benchmark
// generates: no platform file, no fault plan, no observers. Its results
// must match exp.Run bit for bit; the benchmark checks that through the
// output digests.
func runTraced(ctx context.Context, rec *recorder, sc exp.Scenario) (*exp.Result, runCounts, error) {
	var rc runCounts
	if sc.Platform != nil || sc.Faults != nil || sc.Trace != nil || sc.Metrics != nil {
		return nil, rc, fmt.Errorf("perfbench: traced runs support plain scenarios only")
	}
	policy, err := exp.NewPolicy(sc.Policy)
	if err != nil {
		return nil, rc, err
	}
	cfg := manager.DefaultConfig(tracePolicy(policy, rec))
	cfg.Interconnect.Topology = sc.Topology
	cfg.DM = sc.DM
	cfg.DisableForwarding = sc.DisableForwarding
	cfg.AlwaysWriteBack = sc.AlwaysWriteBack
	if sc.OutputPartitions > 0 {
		cfg.OutputPartitions = sc.OutputPartitions
	}
	cfg.DetailedDRAM = sc.DetailedDRAM
	if sc.DRAMFCFS {
		cfg.DRAMPolicy = dram.FCFS
	}
	if cfg.BW, err = predict.NewBW(sc.BWPredictor, cfg.Interconnect.DRAMBandwidth); err != nil {
		return nil, rc, err
	}

	k := sim.NewKernel()
	st := stats.New()
	s := rec.begin("manager.new")
	m := manager.New(k, cfg, st)
	rec.end(s)

	build := func(app workload.App) *graph.DAG {
		s := rec.begin("workload.build")
		d := workload.MustBuild(app)
		rec.end(s)
		return d
	}
	s = rec.begin("manager.submit")
	for _, app := range sc.Mix {
		app := app
		if sc.Period > 0 {
			err = m.SubmitPeriodic(func() *graph.DAG { return build(app) }, sc.Period, sc.EffectiveHorizon())
		} else {
			var rebuild func() *graph.DAG
			if sc.Contention == workload.Continuous {
				rebuild = func() *graph.DAG { return build(app) }
			}
			err = m.Submit(build(app), 0, rebuild)
		}
		if err != nil {
			rec.end(s)
			return nil, rc, err
		}
	}
	rec.end(s)

	if err := ctx.Err(); err != nil {
		return nil, rc, err
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
	s = rec.begin("manager.run")
	var end sim.Time
	switch {
	case sc.Period > 0:
		end = m.RunContinuous(sc.EffectiveHorizon())
	case sc.Contention == workload.Continuous:
		end = m.RunContinuous(workload.ContinuousHorizon)
	default:
		end = m.Run()
	}
	rec.end(s)
	if k.Interrupted() {
		return nil, rc, fmt.Errorf("perfbench: run interrupted: %v", ctx.Err())
	}
	res := &exp.Result{Scenario: sc, Stats: st, End: end}
	if dc := m.DRAMController(); dc != nil {
		res.RowHitRate = dc.RowHitRate()
	}
	rc.runs = 1
	rc.fired, rc.scheduled = k.Fired(), k.Scheduled()
	rc.claims, rc.conflicts = m.Interconnect().ClaimStats()
	rc.nodes = st.NodesDone
	return res, rc, nil
}
