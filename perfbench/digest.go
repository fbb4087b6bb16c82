package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"relief/internal/exp"
)

// pins are the output digests of one complete pass of each workload's
// fixed scenario set (for serve-open: its hot set), at the commit that
// defined the benchmark. Simulated outputs must never change for speed;
// a mismatch counts every scenario of the pass as failed. Update a pin only
// together with a change that deliberately moves the repository's golden
// digests.
var pins = map[string]string{
	"grid-paper":      "3eaebf06da16cc9fe6aa8b3ad1e3677291b0d87637501aa278aa4efd86f838f3",
	"grid-continuous": "ceb375c887d45984f4574c28223f1bd8f79b33a97aabdccc4bb092dd7c000c36",
	"dram-bank":       "25c72923155ed54450224767737465ac16df511e6f5fafc5b7f5acb29f89c689",
	"serve-open":      "5dd23dfd2c25c5c255a879bf6ac6ba43aa07c1178ff031fbefe25ad68c2483d6",
}

// record is one scenario's output as the benchmark checks it: the
// canonical scenario key, the exp.Cell JSON and the summary text.
type record struct {
	key  string
	cell []byte
	text []byte
}

// encode renders a finished run the way the service and the sweep dumps
// do (exp.ScenarioKey, exp.NewCell, exp.WriteSummary).
func encode(sc exp.Scenario, res *exp.Result) (record, error) {
	key := exp.ScenarioKey(sc)
	cell, err := json.Marshal(exp.NewCell(key, res))
	if err != nil {
		return record{}, err
	}
	var text bytes.Buffer
	if err := exp.WriteSummary(&text, sc, res.Stats); err != nil {
		return record{}, err
	}
	return record{key: key, cell: cell, text: text.Bytes()}, nil
}

// digest hashes records in canonical (scenario key) order, so it does not
// depend on the seed-chosen order in which scenarios ran.
func digest(recs []record) string {
	sorted := append([]record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	h := sha256.New()
	for _, r := range sorted {
		for _, part := range [][]byte{[]byte(r.key), r.cell, r.text} {
			h.Write(part)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPin compares a pass digest with the workload's pin. An empty pin
// (a workload not pinned yet) fails, so a benchmark without pins cannot
// pass its correctness gate.
func checkPin(workload, got string) error {
	want := pins[workload]
	if got != want {
		return fmt.Errorf("%s: output digest %s, pinned %q", workload, got, want)
	}
	return nil
}

// selfTestFlip proves the gate catches a one-byte change: it flips one
// byte of one cell in a copy of a passing record set and requires the
// digest to move.
func selfTestFlip(recs []record) error {
	if len(recs) == 0 {
		return fmt.Errorf("self-test: no records")
	}
	good := digest(recs)
	bad := append([]record(nil), recs...)
	i := len(bad) / 2
	cell := append([]byte(nil), bad[i].cell...)
	cell[len(cell)/2] ^= 1
	bad[i].cell = cell
	if digest(bad) == good {
		return fmt.Errorf("self-test: flipped cell byte not detected")
	}
	return nil
}
