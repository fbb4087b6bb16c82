package exp

import (
	"io"
	"strconv"
	"sync"

	"relief/internal/workload"
)

// Sweep memoizes scenario results so figure generators that share the same
// underlying simulations (e.g. Figs. 4, 5, 7, 8 at the same contention
// level) run each simulation once. It is safe for concurrent use.
type Sweep struct {
	mu       sync.Mutex
	results  map[string]*Result
	inFlight map[string]*sync.WaitGroup
	err      error // first simulation error seen by Warm/Get
}

// NewSweep returns an empty result cache.
func NewSweep() *Sweep {
	return &Sweep{
		results:  make(map[string]*Result),
		inFlight: make(map[string]*sync.WaitGroup),
	}
}

// key builds the cache key (the canonical scenario encoding, see
// ScenarioKey).
func (s *Sweep) key(sc Scenario) string { return ScenarioKey(sc) }

// ScenarioKey renders the scenario's canonical content key: an explicit,
// delimiter-separated field encoding (no reflective %v formatting). Fields
// cannot collide because each is length-delimited by a terminator that
// cannot appear inside it, and adding a field extends the tail. A Platform
// appends its canonical JSON as a last field, so scenarios without one keep
// their bytes. Trace, Metrics and MetricsInterval are deliberately
// excluded: observers don't change simulation results, and
// observer-bearing scenarios should call Run directly rather than share
// cached results. Every other field must change the key (a test enforces
// this).
//
// This single encoding backs both the Sweep memoization key and the
// serving layer's content digests (internal/serve hashes it), so the two
// can never drift.
func ScenarioKey(sc Scenario) string { return string(AppendScenarioKey(nil, sc)) }

// AppendScenarioKey appends the canonical scenario encoding to b and
// returns the extended slice (see ScenarioKey).
func AppendScenarioKey(b []byte, sc Scenario) []byte {
	for _, a := range sc.Mix {
		b = append(b, a.Sym()...)
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sc.Contention), 10)
	b = append(b, '|')
	b = append(b, sc.Policy...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sc.Topology), 10)
	b = append(b, '|')
	b = append(b, sc.BWPredictor...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sc.DM), 10)
	b = append(b, '|')
	b = appendBool(b, sc.DisableForwarding)
	b = appendBool(b, sc.AlwaysWriteBack)
	b = strconv.AppendInt(b, int64(sc.OutputPartitions), 10)
	b = append(b, '|')
	b = appendBool(b, sc.DetailedDRAM)
	b = appendBool(b, sc.DRAMFCFS)
	b = append(b, '|')
	b = sc.Faults.AppendKey(b)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sc.Period), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sc.Horizon), 10)
	if sc.Platform != nil {
		b = append(b, '|')
		b = sc.Platform.appendKey(b)
	}
	return b
}

// AppendForkKey appends the scenario encoding with the horizon zeroed. A
// warmed simulation's state trajectory up to its capture instant is
// identical for every horizon beyond it (pending future releases cannot
// affect earlier state), so scenarios sharing a fork key can all be seeded
// from one checkpoint (docs/CHECKPOINT.md).
func AppendForkKey(b []byte, sc Scenario) []byte {
	sc.Horizon = 0
	return AppendScenarioKey(b, sc)
}

// ForkKey renders the horizon-agnostic scenario key (see AppendForkKey).
func ForkKey(sc Scenario) string { return string(AppendForkKey(nil, sc)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// Warm runs the given scenarios concurrently (workers goroutines) so later
// Get calls hit the cache. The first error is recorded and reported by
// Err (and again by the per-scenario Get).
func (s *Sweep) Warm(scenarios []Scenario, workers int) {
	if workers < 1 {
		workers = 1
	}
	ch := make(chan Scenario)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sc := range ch {
				_, _ = s.Get(sc)
			}
		}()
	}
	for _, sc := range scenarios {
		ch <- sc
	}
	close(ch)
	wg.Wait()
}

// Err returns the first simulation error encountered by Warm or Get, or
// nil. Callers that prefetch with Warm should check it before trusting the
// cache to be complete.
func (s *Sweep) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// CostTotals sums the simulator-cost counters over every cached result:
// scenarios simulated, kernel events dispatched, and Event structs
// heap-allocated. The benchmark harness samples it before and after each
// experiment, so a scenario's cost is attributed to the experiment that
// first simulated it (cache hits cost nothing).
func (s *Sweep) CostTotals() (scenarios int, events, allocs uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.results {
		scenarios++
		events += r.Stats.EventsFired
		allocs += r.Stats.EventAllocs
	}
	return scenarios, events, allocs
}

// MainGrid enumerates the (contention, mix, policy) scenarios behind the
// paper's core figures, for prefetching.
func MainGrid() []Scenario {
	var out []Scenario
	for _, lvl := range []workload.Contention{workload.Low, workload.Medium, workload.High, workload.Continuous} {
		for _, mix := range workload.Mixes(lvl) {
			for _, p := range FairnessPolicyNames {
				out = append(out, Scenario{Mix: mix, Contention: lvl, Policy: p})
			}
		}
	}
	return out
}

// Get runs the scenario (or returns the cached result).
func (s *Sweep) Get(sc Scenario) (*Result, error) {
	k := s.key(sc)
	for {
		s.mu.Lock()
		if r, ok := s.results[k]; ok {
			s.mu.Unlock()
			return r, nil
		}
		if wg, ok := s.inFlight[k]; ok {
			s.mu.Unlock()
			wg.Wait()
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		s.inFlight[k] = wg
		s.mu.Unlock()

		r, err := Run(sc)
		s.mu.Lock()
		if err == nil {
			s.results[k] = r
		} else if s.err == nil {
			s.err = err
		}
		delete(s.inFlight, k)
		s.mu.Unlock()
		wg.Done()
		return r, err
	}
}

// DumpJSON writes every cached result as a JSON array, sorted by scenario
// key, for external analysis/plotting. The rendering is shared with the
// distributed sweep merge path (WriteCells), so a merged multi-replica
// sweep document is byte-identical to a single-process dump of the same
// scenarios.
func (s *Sweep) DumpJSON(w io.Writer) error {
	s.mu.Lock()
	var out []Cell
	for k, r := range s.results {
		out = append(out, NewCell(k, r)) //lint:allow maporder WriteCells sorts by scenario key
	}
	s.mu.Unlock()
	return WriteCells(w, out)
}
