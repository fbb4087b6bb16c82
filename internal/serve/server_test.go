package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func decodeResponse(t *testing.T, b []byte) (cached bool, res Result) {
	t.Helper()
	var env struct {
		Cached bool `json:"cached"`
		Result
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decode response %s: %v", b, err)
	}
	return env.Cached, env.Result
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentIdenticalRequestsExecuteOnce: N clients posting the same
// scenario while it is in flight share one simulation (singleflight).
func TestConcurrentIdenticalRequestsExecuteOnce(t *testing.T) {
	s := New(Config{Workers: 2})
	var execs atomic.Int32
	release := make(chan struct{})
	s.runner = func(ctx context.Context, req Request) (*Result, error) {
		execs.Add(1)
		<-release
		return &Result{Text: "stub"}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b := post(t, ts.URL, `{"mix":"CGL"}`)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, b)
			}
			results[i] = b
		}()
	}
	// All n must be parked on the one flight before it completes.
	waitFor(t, "dedup joins", func() bool {
		return s.svc.misses.Load() == 1 && s.svc.joins.Load() == n-1
	})
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("simulation executed %d times, want 1", got)
	}
	for i := range results {
		if cached, res := decodeResponse(t, results[i]); cached || res.Text != "stub" {
			t.Errorf("request %d: cached=%v text=%q", i, cached, res.Text)
		}
	}
	// The shared result landed in the cache: one more POST is a hit.
	resp, b := post(t, ts.URL, `{"mix":"CGL"}`)
	if cached, _ := decodeResponse(t, b); resp.StatusCode != http.StatusOK || !cached {
		t.Fatalf("follow-up not served from cache: status=%d body=%s", resp.StatusCode, b)
	}
	if s.svc.hits.Load() != 1 {
		t.Errorf("hits = %d, want 1", s.svc.hits.Load())
	}
}

// TestCacheEvictionUnderCap: the LRU holds at most CacheCap results and
// evicts least-recently-used first.
func TestCacheEvictionUnderCap(t *testing.T) {
	s := New(Config{Workers: 1, CacheCap: 2})
	var execs atomic.Int32
	s.runner = func(ctx context.Context, req Request) (*Result, error) {
		execs.Add(1)
		return &Result{Text: req.Mix}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts.URL, `{"mix":"C"}`)         // exec 1; cache [C]
	post(t, ts.URL, `{"mix":"D"}`)         // exec 2; cache [D C]
	post(t, ts.URL, `{"mix":"C"}`)         // hit; cache [C D]
	post(t, ts.URL, `{"mix":"G"}`)         // exec 3; evicts D; cache [G C]
	post(t, ts.URL, `{"mix":"C"}`)         // hit; refreshes C; cache [C G]
	post(t, ts.URL, `{"mix":"D"}`)         // exec 4: D was evicted; evicts G
	_, b := post(t, ts.URL, `{"mix":"C"}`) // still a hit

	if cached, res := decodeResponse(t, b); !cached || res.Text != "C" {
		t.Errorf("C fell out of a 2-entry cache: cached=%v text=%q", cached, res.Text)
	}
	if got := execs.Load(); got != 4 {
		t.Errorf("executed %d simulations, want 4", got)
	}
	s.mu.Lock()
	n := s.cache.len()
	s.mu.Unlock()
	if n != 2 {
		t.Errorf("cache holds %d entries, cap 2", n)
	}
}

// TestQueueBackpressure: with the single worker busy and the admission
// queue full, the next distinct request is rejected with 429 + Retry-After.
func TestQueueBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	s.runner = func(ctx context.Context, req Request) (*Result, error) {
		<-release
		return &Result{Text: req.Mix}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{}, 2)
	go func() { post(t, ts.URL, `{"mix":"C"}`); done <- struct{}{} }()
	waitFor(t, "worker busy", func() bool { return s.svc.running.Load() == 1 })
	go func() { post(t, ts.URL, `{"mix":"D"}`); done <- struct{}{} }()
	waitFor(t, "queue full", func() bool { return s.svc.queueDepth.Load() == 1 })

	resp, b := post(t, ts.URL, `{"mix":"G"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.svc.rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", s.svc.rejected.Load())
	}
	close(release)
	<-done
	<-done
}

// TestRequestTimeout: a request whose simulation exceeds its budget gets
// 504 and the cache stays clean.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, Timeout: 20 * time.Millisecond})
	s.runner = func(ctx context.Context, req Request) (*Result, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("run cancelled: %w", ctx.Err())
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := post(t, ts.URL, `{"mix":"C"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, b)
	}
	s.mu.Lock()
	n := s.cache.len()
	s.mu.Unlock()
	if n != 0 {
		t.Error("failed run was cached")
	}
}

// TestDrainRefusesNewWork: once draining, new requests get 503, readiness
// flips to 503 while liveness stays 200 (orchestrators should stop routing,
// not restart the pod), and the worker pool exits cleanly.
func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	s.runner = func(ctx context.Context, req Request) (*Result, error) {
		return &Result{Text: "x"}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("readyz before drain = %d, want 200", got)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, b := post(t, ts.URL, `{"mix":"C"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, b)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (liveness is not readiness)", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", got)
	}
	if err := s.Drain(context.Background()); err != nil { // idempotent
		t.Fatalf("second drain: %v", err)
	}
}

// TestClientDisconnectCancelsRun: when every waiter abandons an in-flight
// simulation, its context is cancelled — the kernel aborts mid-run and the
// service stays healthy for the next request. Runs the real simulator; the
// race detector covers the cross-goroutine cancel.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	// Continuous contention plus the bank-level DRAM model keeps the kernel
	// busy for ~10^5 events, so the cancel below always lands mid-run.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
		strings.NewReader(`{"mix":"CGL","continuous":true,"detailed_dram":true}`))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	waitFor(t, "simulation start", func() bool { return s.svc.running.Load() == 1 })
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client POST succeeded despite cancelled context")
	}
	waitFor(t, "cancelled run to error out", func() bool { return s.svc.errors.Load() == 1 })

	resp, b := post(t, ts.URL, `{"mix":"C"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request failed: %d %s", resp.StatusCode, b)
	}
	s.mu.Lock()
	flights := len(s.flights)
	s.mu.Unlock()
	if flights != 0 {
		t.Errorf("%d stale flights after cancellation", flights)
	}
}

// TestMetricsEndpoint: /metrics speaks Prometheus text format and carries
// the service counters, including the durable-cache families once a spill
// directory is attached.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	s.runner = func(ctx context.Context, req Request) (*Result, error) {
		return &Result{Text: "x"}, nil
	}
	if _, err := s.EnableDiskCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post(t, ts.URL, `{"mix":"C"}`)
	post(t, ts.URL, `{"mix":"C"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"relief_serve_requests_total 2",
		"relief_serve_cache_hits_total 1",
		"relief_serve_cache_misses_total 1",
		"relief_serve_queue_depth 0",
		"relief_serve_request_latency_ms",
		"# TYPE relief_serve_requests_total counter",
		"relief_serve_disk_cache_hits_total 0",
		"relief_serve_disk_cache_misses_total 1", // the one cold miss checked disk too
		"relief_serve_disk_cache_load_errors_total 0",
		"relief_serve_disk_cache_spill_errors_total 0",
		"relief_serve_disk_cache_entries 1",
		"# TYPE relief_serve_disk_cache_entries gauge",
	} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServedTextMatchesCLI is the golden cross-check: the "text" field of a
// served result must be byte-identical to relief-sim's stdout for the same
// scenario.
func TestServedTextMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain unavailable")
	}
	bin := filepath.Join(t.TempDir(), "relief-sim")
	build := exec.Command(goBin, "build", "-o", bin, "relief/cmd/relief-sim")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building relief-sim: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		args []string
		body string
	}{
		{[]string{"-mix", "CGL", "-policy", "RELIEF"}, `{"mix":"CGL"}`},
		{[]string{"-mix", "CDH", "-policy", "LAX", "-topology", "xbar"},
			`{"mix":"CDH","policy":"LAX","topology":"xbar"}`},
		{[]string{"-mix", "GL", "-policy", "RELIEF", "-faults", "0.01"},
			`{"mix":"GL","fault_rate":0.01}`},
		// Pins the shared Duration -> milliseconds -> sim.Time conversion.
		{[]string{"-mix", "CGL", "-period", "333us", "-horizon", "2ms", "-bw", "ewma"},
			`{"mix":"CGL","period_ms":0.333,"horizon_ms":2,"bw":"ewma"}`},
	} {
		cli, err := exec.Command(bin, tc.args...).Output()
		if err != nil {
			t.Fatalf("relief-sim %v: %v", tc.args, err)
		}
		var req Request
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		res, err := runSimulation(context.Background(), req)
		if err != nil {
			t.Fatalf("serve run %s: %v", tc.body, err)
		}
		if res.Text != string(cli) {
			t.Errorf("served text diverges from CLI for %s:\n--- CLI ---\n%s--- served ---\n%s",
				tc.body, cli, res.Text)
		}
	}
}

// TestRunSimulationCancelledMidRun cancels a real continuous-contention
// simulation from another goroutine: the facade must return a clean
// context error and no result — never partial statistics. go test -race
// verifies the cross-goroutine cancellation is race-free.
func TestRunSimulationCancelledMidRun(t *testing.T) {
	// The detailed DRAM model stretches this run to ~10^5 kernel events
	// (dozens of interrupt polls), so a 1 ms cancel reliably lands mid-run.
	req := Request{Mix: "CGL", Continuous: true, DetailedDRAM: true}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	res, err := runSimulation(ctx, req)
	if err == nil {
		t.Fatal("cancelled run returned no error (cancel landed too late?)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run leaked a result: %+v", res)
	}
}
