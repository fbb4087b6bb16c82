// Command perfbench is the RELIEF benchmark driver. It runs one workload
// against the simulator and its service in-process, checks every output
// against pinned digests or a direct exp.Run, and prints one JSON result
// line. README.md describes the workloads and metrics.
//
//	perfbench --workload grid-paper --seed 1 --seconds 25 --trace 0
//	perfbench --workload all --seed 1 --seconds 25 --trace 1
//	perfbench compare BASE.json NEW.json
//
// It reads BENCHMARK.json from the working directory (the repository root)
// for the metric names and units it must report.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median.
const setupRepeats = 15

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	invalid           bool // the self-test failed, or too few samples to trust a metric
	metrics           map[string]float64
	notes             map[string]any
	errs              []string
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the host and the code a result came from. Results
// compare only when their host fields match.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func (f fingerprint) host() string {
	return fmt.Sprintf("%s|%d|%d|%s", f.CPU, f.NProc, f.GOMAXPROCS, f.Go)
}

// resultFile is the full record of one run, kept under the output
// directory for later comparison.
type resultFile struct {
	Schema      string                 `json:"schema"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       int                    `json:"trace"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Measured    map[string]float64     `json:"measured"` // everything measured, named or not
	Notes       map[string]any         `json:"notes,omitempty"`
	Errors      []string               `json:"errors,omitempty"`
}

const resultSchema = "relief-perfbench/1"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", `workload to run (see BENCHMARK.json), or "all"`)
	seed := fl.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := fl.Float64("seconds", 20, "length of the timed phase")
	trace := fl.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for result and span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var names []string
	for _, w := range spec.Workloads {
		if *name == "all" || w.Name == *name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %v, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	for _, n := range names {
		if code := runWorkload(spec, n, *seed, *seconds, *trace, *out); code != 0 {
			return code
		}
	}
	return 0
}

// runWorkload runs one workload and prints its fingerprint and result
// lines.
func runWorkload(spec *benchSpec, name string, seed int64, seconds float64, trace int, out string) int {
	t0 := time.Now()
	workers := runtime.NumCPU()
	var o *outcome
	var err error
	var recs []*recorder
	switch {
	case name == "serve-open" && trace == 0:
		o, err = runServeOpen(seed, seconds, workers)
	case name == "serve-open":
		o, recs, err = runServeOpenTraced(seed, seconds, t0)
	case trace == 0:
		o, err = runGrid(name, seed, seconds)
	default:
		o, recs, err = runGridTraced(name, seed, seconds, t0)
	}
	if err == nil && trace == 1 {
		err = runProbes(o.metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	want := spec.EndToEnd
	if trace == 1 {
		want = spec.PerLayer
	}
	res := resultFile{
		Schema: resultSchema, Fingerprint: hostFingerprint(), Workload: name, Seed: seed,
		Seconds: seconds, Trace: trace, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}, Measured: map[string]float64{}, Notes: o.notes, Errors: o.errs,
	}
	for k, v := range o.metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) { // JSON has no NaN or Inf
			res.Measured[k] = v
		}
	}
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s not measured", m.Name))
			continue
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	res.Correct = o.failed == 0 && !o.invalid && len(res.Metrics) == len(want) && o.attempted > 0
	if res.Attempted < 1 {
		res.Attempted = 1 // the contract counts at least one attempt; correct is already false
		res.Failed = 1
	}

	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	if err := saveResult(out, res, recs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fp, _ := json.Marshal(res.Fingerprint) // plain strings and ints always marshal
	fmt.Printf("fingerprint %s workload=%s seed=%d trace=%d\n", fp, name, seed, trace)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// saveResult writes the result file and, for traced runs, the spans.
func saveResult(dir string, res resultFile, recs []*recorder) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Seed, res.Trace)
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results", base+".json"), b, 0o644); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, "traces", base+".jsonl"), recs...)
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(".git"),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD without a git binary; a checkout that is not a git
// repository reports "none", and sourceDigest identifies its code instead.
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs")) // absent: no packed refs
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root, skipping
// hidden directories (git metadata, build output).
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped; the digest covers what is readable
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f) // a read error leaves a shorter hash input; the digest still differs
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compare prints metric-by-metric deltas between two result files of the
// same workload and mode. It refuses results from different hosts: their
// timings say nothing about the code.
func compare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var rs [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if rs[i].Schema != resultSchema {
			fmt.Fprintf(os.Stderr, "perfbench: %s: schema %q, want %q\n", p, rs[i].Schema, resultSchema)
			return 1
		}
	}
	base, next := rs[0], rs[1]
	if base.Fingerprint.host() != next.Fingerprint.host() {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different hosts:\n  %s\n  %s\n",
			base.Fingerprint.host(), next.Fingerprint.host())
		return 3
	}
	if base.Workload != next.Workload || base.Trace != next.Trace || base.Seconds != next.Seconds {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare different workloads, modes or run lengths")
		return 3
	}
	fmt.Fprintf(w, "%s (trace %d): %s → %s\n", base.Workload, base.Trace, base.Fingerprint.Commit, next.Fingerprint.Commit)
	names := make([]string, 0, len(base.Metrics))
	for n := range base.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := base.Metrics[n], next.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %+8.2f%% %s\n", n, a.Value, b.Value, 100*(b.Value/a.Value-1), a.Unit)
	}
	return 0
}
