package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"relief/internal/ckpt"
	"relief/internal/exp"
	"relief/internal/serve"
	"relief/internal/sim"
	"relief/internal/workload"
)

// sloMS is the /run p99 latency limit behind serve.slo_max_rps.
const sloMS = 50

// coldFrac is the share of /run requests for never-seen scenarios. It is
// an assumption, not a measured traffic mix (see README.md): small enough
// that most requests are hits, large enough that a closed loop of a few
// seconds gathers minColdSamples cold runs.
const coldFrac = 0.1

// The fewest closed-loop samples a serve-open run must gather for its
// cold-run (scenario_ms_*) and hit (result_ms_*) latencies; a run with
// fewer is not correct.
const (
	minColdSamples = 100
	minHitSamples  = 1000
)

// Sweep-phase shape: two-application periodic mixes released every
// sweepPeriodMS, each /sweep asking for one grid point over sweepHorizons,
// so the server warms one checkpoint per point and forks every horizon
// from it. The service arms its warm-up at two periods and gives up at
// four; at this period every point of the cycle quiesces at 20 ms, before
// the first horizon, so every cell forks (TestSweepPointsFork).
var (
	sweepPeriodMS = 10.0
	sweepHorizons = []float64{30, 35, 40, 45}
)

// level is one open-loop rate held for a while.
type level struct {
	rps float64
	dur time.Duration
}

// serveConfig shapes one serving session.
type serveConfig struct {
	workers  int           // server workers, and client connections
	closed   time.Duration // closed-loop latency phase, one connection
	levels   []level       // open-loop rates, light to past saturation
	sweepDur time.Duration
}

// serveOpenConfig is serve-open's session for a run of the given length.
// It uses one server worker and one connection. With two workers sharing
// a sweep's cells on a shared 2-vCPU host, the sweep rate moved by ±15%
// from run to run, against ±6% with one worker in the same runs: it
// measured how often the host left both vCPUs free. The grids measure
// parallel work.
func serveOpenConfig(seconds float64) serveConfig {
	d := func(share float64) time.Duration { return secondsDur(seconds * share) }
	return serveConfig{
		workers:  1,
		closed:   d(0.4),
		levels:   []level{{600, d(0.06)}, {1000, d(0.06)}, {2000, d(0.06)}, {4000, d(0.06)}, {8000, d(0.06)}},
		sweepDur: d(0.3),
	}
}

// hotSet is the fixed, seed-independent set of scenarios warmed during
// set-up and then requested repeatedly: every high-contention mix under
// RELIEF and GEDF-D.
func hotSet() []serve.Request {
	var out []serve.Request
	for _, mix := range workload.Mixes(workload.High) {
		for _, p := range []string{"RELIEF", "GEDF-D"} {
			out = append(out, serve.Request{Mix: exp.MixLabel(mix), Policy: p})
		}
	}
	return out
}

// coldTemplates are the scenarios cold requests are made from: every
// high-contention mix under every fairness-study policy, released every
// coldPeriodMS. Requests cycle through them in this fixed order, so every
// run simulates the same mix of costs whatever its seed.
const coldPeriodMS = 5.0

func coldTemplates() []serve.Request {
	var out []serve.Request
	for _, p := range exp.FairnessPolicyNames {
		for _, mix := range workload.Mixes(workload.High) {
			out = append(out, serve.Request{Mix: exp.MixLabel(mix), Policy: p, PeriodMS: coldPeriodMS})
		}
	}
	return out
}

// coldPool draws the never-seen scenarios of a run: the k-th is cold
// template k mod len(templates) with a horizon of two periods plus a
// seed-drawn offset unique in the run (a multiple of 0.1 µs, below half a
// period). The offset makes the scenario new to the service's cache
// without changing how many releases it simulates.
func coldPool(rng *rand.Rand) []serve.Request {
	const n = 20000
	tmpl := coldTemplates()
	out := make([]serve.Request, n)
	for k, off := range rng.Perm(n) {
		r := tmpl[k%len(tmpl)]
		r.HorizonMS = 2*coldPeriodMS + float64(off+1)/1e4
		out[k] = r
	}
	return out
}

// sweepCycle is the fixed cycle of sweep points: every ordered pair of
// distinct applications under every fairness-study policy, without
// application D, whose mixes never quiesce in the warm-up window at this
// period, so the service would run their cells cold.
func sweepCycle() []serve.SweepSpec {
	var points []serve.SweepSpec
	syms := []string{"C", "G", "H", "L"}
	for _, p := range exp.FairnessPolicyNames {
		for _, a := range syms {
			for _, b := range syms {
				if a != b {
					points = append(points, serve.SweepSpec{Mixes: []string{a + b}, Policies: []string{p}, PeriodMS: sweepPeriodMS})
				}
			}
		}
	}
	return points
}

// sweepPoints draws the /sweep requests of a run: the j-th asks for the
// j-th point of sweepCycle over the sweepHorizons axis shifted by a
// seed-drawn offset unique in the run, so its cells are new to the cache.
func sweepPoints(rng *rand.Rand) []serve.SweepSpec {
	points := sweepCycle()
	const n = 4000
	out := make([]serve.SweepSpec, n)
	for j, off := range rng.Perm(n) {
		sp := points[j%len(points)]
		for _, h := range sweepHorizons {
			sp.HorizonsMS = append(sp.HorizonsMS, h+float64(off+1)/1000)
		}
		out[j] = sp
	}
	return out
}

// call is one /run request of the open loop.
type call struct {
	level int
	cold  bool
	req   *serve.Request // shared with the hot set or the cold pool
	body  []byte
	due   time.Duration // from the level's start
	sent  time.Duration // when a connection took it
	late  time.Duration // how late the generator released it
	lat   time.Duration // response read, from the due time (open loop) or the send (closed loop)
	// scaledMS is a closed-loop call's lat in ms, scaled to the nominal
	// host (see speedometer).
	scaledMS float64
	code     int
	err      error
	// check is the outcome of checking the answer; answer is the digest
	// of an answer outside the hot set, which verify compares with
	// exp.Run. Only the digest is kept, so that the benchmark's own
	// bookkeeping barely grows the heap the service is measured by.
	check  error
	answer string
	// dropped marks a call still unsent when its level's drain window
	// closed: never attempted, but a miss for the level's SLO.
	dropped bool
}

// server is one in-process service on a loopback listener.
type server struct {
	srv    *serve.Server
	url    string
	client *http.Client
	served chan error
}

func startServer(workers int, runner func(context.Context, serve.Request) (*serve.Result, error)) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv: serve.New(serve.Config{Workers: workers, Runner: runner}),
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the service and waits for its accept loop to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // a drain timeout cancels leftover runs; nothing to report
	<-s.served
	s.client.CloseIdleConnections()
}

func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// roundTrip is post with an "http"+path span on the client's recorder,
// when there is one (traced runs use a single connection, so one
// goroutine records).
func (s *server) roundTrip(client *recorder, path string, body []byte) (int, []byte, error) {
	if client == nil {
		return s.post(path, body)
	}
	sp := client.begin("http" + path)
	defer client.end(sp)
	return s.post(path, body)
}

// runResponse is the part of a /run answer the benchmark checks.
type runResponse struct {
	Source string          `json:"source"`
	Text   string          `json:"text"`
	Cell   json.RawMessage `json:"cell"`
}

// responseRecord turns a /run answer into a record, re-encoding the cell
// compactly so it compares byte for byte with encode's output.
func responseRecord(req serve.Request, body []byte) (record, string, error) {
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return record{}, "", err
	}
	var cell exp.Cell
	if err := json.Unmarshal(rr.Cell, &cell); err != nil {
		return record{}, "", err
	}
	cb, err := json.Marshal(cell)
	if err != nil {
		return record{}, "", err
	}
	if err := req.Normalize(); err != nil {
		return record{}, "", err
	}
	sc, err := req.Scenario()
	if err != nil {
		return record{}, "", err
	}
	return record{key: exp.ScenarioKey(sc), cell: cb, text: []byte(rr.Text)}, rr.Source, nil
}

// session is everything one serving session measured.
type session struct {
	setupS     []float64
	calls      []*call
	levels     []level
	sweeps     int
	sweepLat   []float64   // round trip of each answered sweep, ms, scaled
	speed      speedometer // read in the closed /run and sweep loops
	sweepDocs  [][]byte
	sweepSpecs []serve.SweepSpec
	rt0, rt1   rtStat
	cpuS       float64 // process CPU time of the timed phase
	peakMB     float64
	peaks      []float64 // peak live heap of each second of the timed phase, MB
	hitMS      []float64 // closed-loop cache hits' latencies, ms, scaled
	stages     map[string]float64
	hot        []record
	dropped    []int // per level: calls never sent
	failed     int64
	attempted  int64
	errs       []string
}

func (ss *session) fail(n int64, err error) {
	ss.failed += n
	if len(ss.errs) < 20 {
		ss.errs = append(ss.errs, err.Error())
	}
}

// serveSetup starts a server and warms the hot set through /run. It
// returns the hot set's records in request order.
func serveSetup(workers int, runner func(context.Context, serve.Request) (*serve.Result, error)) (*server, []record, error) {
	s, err := startServer(workers, runner)
	if err != nil {
		return nil, nil, err
	}
	hot := hotSet()
	recs := make([]record, len(hot))
	errs := make(chan error, len(hot)) // one slot per request: senders never block
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body, _ := json.Marshal(hot[i]) // a Request always marshals
				code, b, err := s.post("/run", body)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("warm /run %s: status %d: %s", hot[i].Mix, code, b)
				}
				if err == nil {
					recs[i], _, err = responseRecord(hot[i], b)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	for i := range hot {
		next <- i
	}
	close(next)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		s.stop()
		return nil, nil, err
	}
	return s, recs, nil
}

// schedule draws a level's open-loop arrivals: Poisson at the level's
// rate, each a hot-set hit with probability 1-coldFrac, else the next
// never-seen scenario of the cold pool.
func schedule(rng *rand.Rand, li int, lv level, hot []serve.Request, cold *[]serve.Request) ([]*call, error) {
	var out []*call
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / lv.rps * float64(time.Second))
		if at >= lv.dur {
			return out, nil
		}
		c := &call{level: li, due: at}
		if rng.Float64() < coldFrac {
			if len(*cold) == 0 {
				return nil, fmt.Errorf("cold scenario pool exhausted")
			}
			c.cold, c.req = true, &(*cold)[0]
			*cold = (*cold)[1:]
		} else {
			c.req = &hot[rng.Intn(len(hot))]
		}
		body, err := json.Marshal(c.req)
		if err != nil {
			return nil, err
		}
		c.body = body
		out = append(out, c)
	}
}

// closedLoop sends /run requests one after another on one connection for
// d: each a hot-set hit with probability 1-coldFrac, else the
// next never-seen scenario. With one request in flight, latency is the
// service's own, free of client queueing and of the open-loop generator.
// Between requests it reads the host's speed every readEvery. It returns
// the calls, except correct cache hits, of which it keeps only the
// latency in ms, scaled: a run makes tens of thousands of them, and
// keeping each call would grow the heap that peak_heap_mb measures.
func closedLoop(s *server, rng *rand.Rand, d time.Duration, hot []serve.Request, cold *[]serve.Request,
	hotByKey map[string]record, client *recorder, sp *speedometer) (calls []*call, hitMS []float64) {
	var sent, hitSent []time.Time
	var hitLat []time.Duration
	start := time.Now()
	for time.Since(start) < d {
		sp.readIfDue()
		c := &call{level: -1}
		if rng.Float64() < coldFrac && len(*cold) > 0 {
			c.cold, c.req = true, &(*cold)[0]
			*cold = (*cold)[1:]
		} else {
			c.req = &hot[rng.Intn(len(hot))]
		}
		body, _ := json.Marshal(c.req) // a Request always marshals
		t := time.Now()
		code, b, err := s.roundTrip(client, "/run", body)
		c.lat = time.Since(t)
		c.settle(code, b, err, hotByKey)
		if !c.cold && c.check == nil && c.answer == "" {
			hitLat, hitSent = append(hitLat, c.lat), append(hitSent, t)
			continue
		}
		calls, sent = append(calls, c), append(sent, t)
	}
	sp.read()
	for i, c := range calls {
		c.scaledMS = sp.scaled(c.lat, sent[i])
	}
	for i, l := range hitLat {
		hitMS = append(hitMS, sp.scaled(l, hitSent[i]))
	}
	return calls, hitMS
}

// openLoop plays one level's calls: a generator releases each call at its
// due time into a queue that workers connections drain. Latency runs from
// the due time, so a stall also delays the calls queued behind it, and so
// does the generator's own lateness, which is reported on its own as
// bench.gen_late_ms_p99. Calls still queued drainFor after the level ends
// are dropped, which bounds an overloaded level's length.
func openLoop(s *server, calls []*call, workers int, dur time.Duration, hot map[string]record, client *recorder) {
	// Sized to the level's calls so the generator never blocks: the queue
	// is the open loop's backlog, not a throttle.
	queue := make(chan *call, len(calls))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range queue {
				c.sent = time.Since(start)
				if c.sent > dur+drainFor {
					c.dropped = true
					continue
				}
				code, body, err := s.roundTrip(client, "/run", c.body)
				c.lat = time.Since(start) - c.due
				c.settle(code, body, err, hot)
			}
		}()
	}
	for _, c := range calls {
		if d := c.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		c.late = time.Since(start) - c.due
		queue <- c
	}
	close(queue)
	wg.Wait()
}

// settle records an answer right after it is timed, and checks it against
// the hot set, so that answers need not be kept.
func (c *call) settle(code int, body []byte, err error, hot map[string]record) {
	c.code, c.err = code, err
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		c.check = fmt.Errorf("/run %s: %w", c.req.Mix, err)
		return
	}
	got, src, err := responseRecord(*c.req, body)
	if err != nil {
		c.check = err
		return
	}
	c.cold = src != "cache" // an evicted hot scenario runs again
	if h, ok := hot[got.key]; ok {
		if !sameRecord(h, got) {
			c.check = fmt.Errorf("/run %s: answer differs from the warmed hot-set result", got.key)
		}
		return
	}
	c.answer = digest([]record{got})
}

// drainFor is how long an open-loop level may run past its end.
const drainFor = 500 * time.Millisecond

// sweepLoop POSTs one never-seen /sweep point after another on one
// connection until d has elapsed, and returns the answered points, their
// documents and round-trip times in ms, scaled to the nominal host from
// readings of its speed every readEvery between sweeps.
func sweepLoop(s *server, specs []serve.SweepSpec, d time.Duration, client *recorder, sp *speedometer) (done []serve.SweepSpec, docs [][]byte, lat []float64, errs []error) {
	var raw []time.Duration
	var sent []time.Time
	start := time.Now()
	for _, spec := range specs {
		if time.Since(start) >= d {
			break
		}
		sp.readIfDue()
		body, _ := json.Marshal(spec) // a SweepSpec always marshals
		t := time.Now()
		code, b, err := s.roundTrip(client, "/sweep", body)
		l := time.Since(t)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("/sweep %s: status %d: %s", spec.Mixes[0], code, b)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		done, docs = append(done, spec), append(docs, b)
		raw, sent = append(raw, l), append(sent, t)
	}
	sp.read()
	for i, l := range raw {
		lat = append(lat, sp.scaled(l, sent[i]))
	}
	return done, docs, lat, errs
}

// runSession runs one serving session: repeats set-ups (all but the last
// server stopped again), then the timed phase: the closed /run loop, the
// open-loop levels and the closed sweep loop. Hits are checked as they
// arrive; verify checks the rest afterwards.
func runSession(cfg serveConfig, rng *rand.Rand, cold *[]serve.Request, sweeps *[]serve.SweepSpec, repeats int,
	runner func(context.Context, serve.Request) (*serve.Result, error), client *recorder) (*session, error) {
	ss := &session{levels: cfg.levels}
	var s *server
	hot := hotSet()
	var plan [][]*call
	var sp speedometer
	sp.read()
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.stop()
		}
		t := time.Now()
		var err error
		if s, ss.hot, err = serveSetup(cfg.workers, runner); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		// The arrival plan is part of set-up; only the last draw is used,
		// so the seed alone decides it.
		draw := rand.New(rand.NewSource(rng.Int63()))
		pool := append([]serve.Request(nil), (*cold)...)
		plan = plan[:0]
		for li, lv := range ss.levels {
			calls, err := schedule(draw, li, lv, hot, &pool)
			if err != nil {
				s.stop()
				return nil, err
			}
			plan = append(plan, calls)
		}
		if i == repeats-1 {
			*cold = pool
		}
		d := time.Since(t)
		sp.read()
		ss.setupS = append(ss.setupS, sp.scaled(d, t)/1e3)
	}
	defer s.stop()
	closedDraw := rand.New(rand.NewSource(rng.Int63()))
	if err := checkPin("serve-open", digest(ss.hot)); err != nil {
		ss.fail(int64(len(ss.hot)), err)
	}

	hotByKey := map[string]record{}
	for _, r := range ss.hot {
		hotByKey[r.key] = r
	}
	runtime.GC() // every run's timed phase starts from a collected heap
	ss.rt0 = readRuntime()
	cpu0 := cpuSeconds()
	// The peak over the whole phase is set by how far the overloaded
	// open-loop level fell behind, which varies from run to run; the
	// median of one-second peaks is the heap the service usually holds.
	peaks := startHeapPeak().takeEvery(time.Second)
	ss.calls, ss.hitMS = closedLoop(s, closedDraw, cfg.closed, hot, cold, hotByKey, client, &ss.speed)
	for li, calls := range plan {
		openLoop(s, calls, cfg.workers, ss.levels[li].dur, hotByKey, client)
		dropped := 0
		for _, c := range calls {
			if c.dropped {
				dropped++
			} else {
				ss.calls = append(ss.calls, c)
			}
		}
		ss.dropped = append(ss.dropped, dropped)
	}
	n := len(*sweeps)
	var errs []error
	ss.sweepSpecs, ss.sweepDocs, ss.sweepLat, errs = sweepLoop(s, *sweeps, cfg.sweepDur, client, &ss.speed)
	*sweeps = (*sweeps)[min(n, len(ss.sweepSpecs)+len(errs)):]
	ss.peaks = peaks()
	ss.peakMB = median(append([]float64(nil), ss.peaks...))
	ss.rt1 = readRuntime()
	ss.cpuS = cpuSeconds() - cpu0
	ss.sweeps = len(ss.sweepSpecs) + len(errs)
	for _, err := range errs {
		ss.fail(int64(len(sweepHorizons)), err)
	}
	ss.attempted += int64(len(ss.calls) + len(ss.hitMS) + ss.sweeps*len(sweepHorizons))

	var err error
	if ss.stages, err = stageMeans(s); err != nil {
		return nil, err
	}
	return ss, nil
}

// verify checks every answer: hits against the hot set's records, cold
// runs and sweep cells against a direct exp.Run of the same scenario, run
// here on workers goroutines after the timed phase.
func (ss *session) verify(workers int) {
	type job struct {
		sc   exp.Scenario
		want func(record) error
	}
	var jobs []job
	for _, c := range ss.calls {
		if c.check != nil {
			ss.fail(1, c.check)
			continue
		}
		if c.answer == "" {
			continue
		}
		got := c.answer
		req := *c.req
		_ = req.Normalize() // responseRecord already normalized and parsed it
		sc, _ := req.Scenario()
		jobs = append(jobs, job{sc, func(want record) error {
			if digest([]record{want}) != got {
				return fmt.Errorf("/run %s: answer differs from exp.Run", want.key)
			}
			return nil
		}})
	}
	for i, doc := range ss.sweepDocs {
		var cells []exp.Cell
		if err := json.Unmarshal(doc, &cells); err != nil || len(cells) != len(sweepHorizons) {
			ss.fail(int64(len(sweepHorizons)), fmt.Errorf("/sweep document: %d cells, %v", len(cells), err))
			continue
		}
		spec := ss.sweepSpecs[i]
		byKey := map[string]exp.Cell{}
		for _, c := range cells {
			byKey[c.Scenario] = c
		}
		for _, h := range spec.HorizonsMS {
			req := serve.Request{Mix: spec.Mixes[0], Policy: spec.Policies[0], PeriodMS: spec.PeriodMS, HorizonMS: h}
			if err := req.Normalize(); err != nil {
				ss.fail(1, err)
				continue
			}
			sc, _ := req.Scenario()
			got, ok := byKey[exp.ScenarioKey(sc)]
			gb, err := json.Marshal(got)
			if !ok || err != nil {
				ss.fail(1, fmt.Errorf("/sweep %s: cell missing", exp.ScenarioKey(sc)))
				continue
			}
			jobs = append(jobs, job{sc, func(want record) error {
				if !bytes.Equal(want.cell, gb) {
					return fmt.Errorf("/sweep %s: forked cell differs from exp.Run", want.key)
				}
				return nil
			}})
		}
	}
	scs := make([]exp.Scenario, len(jobs))
	order := make([]int, len(jobs))
	for i, j := range jobs {
		scs[i], order[i] = j.sc, i
	}
	for i, s := range runPass(scs, order, workers, runPlain) {
		err := s.err
		if err == nil {
			err = jobs[i].want(s.rec)
		}
		if err != nil {
			ss.fail(1, err)
		}
	}
}

func sameRecord(a, b record) bool {
	return a.key == b.key && bytes.Equal(a.cell, b.cell) && bytes.Equal(a.text, b.text)
}

// stageMeans reads the service's per-stage latency histograms from
// GET /metrics and returns each stage's mean in milliseconds.
func stageMeans(s *server) (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sums, counts := map[string]float64{}, map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var dst map[string]float64
		switch {
		case strings.HasPrefix(line, "relief_serve_stage_latency_ms_sum{"):
			dst = sums
		case strings.HasPrefix(line, "relief_serve_stage_latency_ms_count{"):
			dst = counts
		default:
			continue
		}
		i, j := strings.Index(line, `stage="`), strings.LastIndex(line, " ")
		if i < 0 || j < 0 {
			continue
		}
		stage := line[i+len(`stage="`):]
		stage = stage[:strings.IndexByte(stage, '"')]
		v, err := strconv.ParseFloat(line[j+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		dst[stage] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for stage, n := range counts {
		if n > 0 {
			out[stage] = sums[stage] / n
		}
	}
	return out, nil
}

// closedLatencies splits the closed loop's /run latencies, in
// milliseconds scaled to the nominal host, into hits and cold runs, the
// cold runs grouped by cold template.
func (ss *session) closedLatencies() (hit []float64, cold [][]float64) {
	byTemplate := map[string]int{}
	for _, c := range ss.calls {
		if c.level != -1 || c.err != nil || c.code != http.StatusOK || !c.cold {
			continue
		}
		k := c.req.Mix + "|" + c.req.Policy
		i, ok := byTemplate[k]
		if !ok {
			i = len(cold)
			byTemplate[k] = i
			cold = append(cold, nil)
		}
		cold[i] = append(cold[i], c.scaledMS)
	}
	return append([]float64(nil), ss.hitMS...), cold
}

// layerMetrics fills the serving layer's per-layer figures.
func (ss *session) layerMetrics(m map[string]float64) {
	hits, all, rejected := len(ss.hitMS), len(ss.hitMS), 0
	var late []float64
	backlog := 0
	for _, c := range ss.calls {
		if c.level >= 0 {
			late = append(late, ms(c.late))
		}
		if c.code == http.StatusTooManyRequests || c.code == http.StatusServiceUnavailable {
			rejected++
		}
		if c.err == nil && c.code == http.StatusOK {
			all++
			if !c.cold {
				hits++
			}
		}
	}
	// The backlog when a call was sent: calls of its level already due but
	// not yet sent. Calls leave the queue in due order, so those are the
	// calls after it whose due time has passed.
	for li := range ss.levels {
		var lv []*call
		for _, c := range ss.calls {
			if c.level == li {
				lv = append(lv, c)
			}
		}
		for i, c := range lv {
			due := sort.Search(len(lv), func(j int) bool { return lv[j].due > c.sent })
			backlog = max(backlog, due-i-1)
		}
	}
	m["serve.hit_ratio"] = float64(hits) / float64(max(all, 1))
	m["serve.rejected"] = float64(rejected)
	m["serve.backlog_max"] = float64(backlog)
	m["bench.gen_late_ms_p99"] = quantile(late, 0.99)
	for _, stage := range []string{"admission", "cache", "run"} {
		m["serve.stage_ms_mean."+stage] = ss.stages[stage]
	}
	m["serve.slo_max_rps"] = 0
	for li, lv := range ss.levels {
		var lat []float64
		failed := false
		for _, c := range ss.calls {
			if c.level == li {
				lat = append(lat, ms(c.lat))
				failed = failed || c.err != nil || c.code != http.StatusOK
			}
		}
		// A dropped call missed the limit: it counts as slower than any
		// measured one.
		for i := 0; i < ss.dropped[li]; i++ {
			lat = append(lat, math.Inf(1))
		}
		p99 := quantile(lat, 0.99)
		m[fmt.Sprintf("serve.level_%g_rps.p99_ms", lv.rps)] = p99
		m[fmt.Sprintf("serve.level_%g_rps.dropped", lv.rps)] = float64(ss.dropped[li])
		if !failed && len(lat) > 0 && p99 <= sloMS && lv.rps > m["serve.slo_max_rps"] {
			m["serve.slo_max_rps"] = lv.rps
		}
	}
}

func runServeOpen(seed int64, seconds float64, workers int) (*outcome, error) {
	rng := rand.New(rand.NewSource(seed))
	cold := coldPool(rng)
	sweeps := sweepPoints(rng)
	ss, err := runSession(serveOpenConfig(seconds), rng, &cold, &sweeps, setupRepeats, nil, nil)
	if err != nil {
		return nil, err
	}
	ss.verify(workers)
	o := &outcome{attempted: ss.attempted, failed: ss.failed, errs: ss.errs}
	if err := selfTestFlip(ss.hot); err != nil {
		o.errs = append(o.errs, err.Error())
		o.invalid = true
	}
	hit, coldLat := ss.closedLatencies()
	coldN := 0
	for _, g := range coldLat {
		coldN += len(g)
	}
	if coldN < minColdSamples || len(hit) < minHitSamples {
		o.errs = append(o.errs, fmt.Sprintf("closed loop: %d cold and %d hit samples, need %d and %d",
			coldN, len(hit), minColdSamples, minHitSamples))
		o.invalid = true
	}
	cells := len(ss.sweepSpecs) * len(sweepHorizons)
	o.metrics = map[string]float64{
		"setup_s":               median(ss.setupS),
		"scenarios_per_s":       ss.sweepRate(),
		"scenario_ms_p50":       scenarioQuantile(coldLat, 0.50),
		"scenario_ms_p90":       scenarioQuantile(coldLat, 0.90),
		"result_ms_p50":         steadyQuantile(hit, 0.50),
		"result_ms_p90":         steadyQuantile(hit, 0.90),
		"alloc_mb_per_scenario": float64(ss.rt1.allocBytes-ss.rt0.allocBytes-ss.speed.allocBytes) / 1e6 / float64(ss.simulations()),
		"peak_heap_mb":          ss.peakMB,
		"cpu_ms_per_scenario":   1e3 * ss.cpuS / float64(ss.simulations()),
		"ref_kernel_ms":         ss.speed.median(),
	}
	o.notes = map[string]any{"hits_closed": len(hit), "cold_closed": coldN, "cold_templates": len(coldLat), "calls": len(ss.calls),
		"sweeps": ss.sweeps, "cells": cells,
		"heap_peaks_mb": ss.peaks}
	ss.layerMetrics(o.metrics)
	return o, nil
}

// simulations counts the scenarios the session's timed phase simulated:
// cold /run answers and sweep cells.
func (ss *session) simulations() int {
	n := len(ss.sweepSpecs) * len(sweepHorizons)
	for _, c := range ss.calls {
		if c.cold {
			n++
		}
	}
	return max(n, 1)
}

// sweepRate is the sweep cells completed per second by a client that
// sends one sweep after another, from each sweep point's median round
// trip: the cells of one turn of the cycle over the sum of its points'
// medians. A point's median filters out the host's transient stalls, as
// scenarioQuantile does for single runs.
func (ss *session) sweepRate() float64 {
	byPoint := map[string][]float64{}
	for i, sp := range ss.sweepSpecs {
		k := sp.Mixes[0] + "|" + sp.Policies[0]
		byPoint[k] = append(byPoint[k], ss.sweepLat[i]/1e3)
	}
	sum := 0.0
	for _, l := range byPoint {
		sum += median(l)
	}
	return float64(len(byPoint)*len(sweepHorizons)) / sum
}

// serveProbe is the short serving session a traced grid run uses for the
// serving layer's figures: one worker, light and overloaded open-loop
// levels, and a brief sweep phase.
func serveProbe(seed int64) (*session, error) {
	cfg := serveConfig{
		workers:  1,
		closed:   500 * time.Millisecond,
		levels:   []level{{200, 500 * time.Millisecond}, {1600, 300 * time.Millisecond}},
		sweepDur: 500 * time.Millisecond,
	}
	rng := rand.New(rand.NewSource(seed))
	cold, sweeps := coldPool(rng), sweepPoints(rng)
	ss, err := runSession(cfg, rng, &cold, &sweeps, 1, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("serving probe: %w", err)
	}
	ss.verify(1)
	return ss, nil
}

// runServeOpenTraced is serve-open's traced run: one worker and one
// connection, a session with the service's own runner, then one whose
// runner is the benchmark's traced copy (runTraced plus the checkpoint
// fork, with spans). Each session starts its own server and replays the
// same requests, so the tracing overhead compares like with like. Both
// sessions' answers are checked against exp.Run.
func runServeOpenTraced(seed int64, seconds float64, t0 time.Time) (*outcome, []*recorder, error) {
	rng := rand.New(rand.NewSource(seed))
	cold, sweeps := coldPool(rng), sweepPoints(rng)
	sessionSeed := rng.Int63()
	cfg := serveOpenConfig(seconds * 0.4)
	replay := func(runner func(context.Context, serve.Request) (*serve.Result, error), client *recorder) (*session, error) {
		c, sw := append([]serve.Request(nil), cold...), append([]serve.SweepSpec(nil), sweeps...)
		return runSession(cfg, rand.New(rand.NewSource(sessionSeed)), &c, &sw, 1, runner, client)
	}
	plain, err := replay(nil, nil)
	if err != nil {
		return nil, nil, err
	}
	plain.verify(1)
	tr := &tracedRunner{rec: newRecorder(t0)}
	client := newRecorder(t0)
	traced, err := replay(tr.run, client)
	if err != nil {
		return nil, nil, err
	}
	traced.verify(1)
	o := &outcome{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		errs:      append(plain.errs, traced.errs...),
		metrics:   map[string]float64{},
	}
	// Cold /run requests are where the traced runner does all its work;
	// sweep cells mostly restore a checkpoint.
	coldMedian := func(ss *session) float64 {
		_, cold := ss.closedLatencies()
		return scenarioQuantile(cold, 0.5)
	}
	o.metrics["bench.trace_overhead_pct"] = 100 * (coldMedian(traced)/coldMedian(plain) - 1)
	runtimeMetrics(o.metrics, plain.rt0, plain.rt1, &plain.speed, plain.simulations())
	spanMetrics(o.metrics, summarize(tr.rec, client), tr.counts)
	plain.layerMetrics(o.metrics)
	return o, []*recorder{tr.rec, client}, nil
}

// tracedRunner is the service's simulation runner rebuilt from public
// pieces with spans, taking the service's paths: every /run request runs
// cold through runTraced, and a sweep cell forks from a checkpoint warmed
// once per sweep, as the service's per-sweep checkpoint pool does. The
// runner cannot see the service's pool, so it tells sweep cells by their
// horizon (the benchmark's cold /run horizons are far shorter), and it
// keeps only the last fork group's checkpoint: with one connection, sweeps
// run one after another, and each sweep is one fork group.
type tracedRunner struct {
	mu      sync.Mutex
	rec     *recorder
	counts  runCounts
	forkKey string
	env     *ckpt.Envelope // forkKey's checkpoint; nil: the warm failed
}

func (t *tracedRunner) run(ctx context.Context, req serve.Request) (*serve.Result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sc, err := req.Scenario()
	if err != nil {
		return nil, err
	}
	t.rec.id = req.Digest()
	root := t.rec.begin("serve.runner")
	defer t.rec.end(root)
	var res *exp.Result
	if sc.Period > 0 && req.HorizonMS >= sweepHorizons[0] {
		if env := t.envelope(ctx, sc); env != nil && sim.Time(env.CapturedPs) < sc.EffectiveHorizon() {
			s := t.rec.begin("ckpt.restore")
			res, _ = exp.RunFromCheckpoint(ctx, sc, env) // a failed restore runs cold below
			t.rec.end(s)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if res == nil {
		var rc runCounts
		if res, rc, err = runTraced(ctx, t.rec, sc); err != nil {
			return nil, err
		}
		t.counts.add(rc)
	}
	r, cell, err := encodeTraced(t.rec, sc, res)
	if err != nil {
		return nil, err
	}
	return &serve.Result{MakespanMS: res.Stats.Makespan.Milliseconds(), Text: string(r.text), Cell: &cell}, nil
}

// envelope returns the warmed checkpoint of sc's fork group, warming it
// when the group differs from the last one, with the service's shape:
// armed at two periods, given up at four.
func (t *tracedRunner) envelope(ctx context.Context, sc exp.Scenario) *ckpt.Envelope {
	fk := exp.ForkKey(sc)
	if fk == t.forkKey {
		return t.env
	}
	warm := sc
	warm.Horizon = 4 * sc.Period
	s := t.rec.begin("ckpt.capture")
	data, err := exp.RunToCheckpoint(ctx, warm, 2*sc.Period)
	t.rec.end(s)
	t.forkKey, t.env = fk, nil
	if err == nil {
		t.env, _ = ckpt.Open(data) // a corrupt envelope runs the group cold
	}
	return t.env
}
