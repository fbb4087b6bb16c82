package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"relief/internal/fault"
	"relief/internal/sim"
	"relief/internal/workload"
	"relief/internal/xbar"
)

// scenarioObservers are the Scenario fields that record a run without
// changing it, and so stay out of its key.
var scenarioObservers = []string{"Trace", "Metrics", "MetricsInterval"}

// nonZero returns a non-zero value of typ.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	t.Helper()
	v := reflect.New(typ).Elem()
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(typ, 1, 1))
	case reflect.Map:
		m := reflect.MakeMap(typ)
		m.SetMapIndex(nonZero(t, typ.Key()), nonZero(t, typ.Elem()))
		v.Set(m)
	case reflect.Pointer:
		v.Set(reflect.New(typ.Elem()))
	default:
		t.Fatalf("no non-zero value for %v", typ)
	}
	return v
}

// TestScenarioKeyCoversEveryField makes "a knob missing from the key" a
// failing test: setting any one exported Scenario field, or any one
// PlatformSpec field, must change the scenario key and — except for the
// horizon, which forks share — the fork key. Observers must not.
func TestScenarioKeyCoversEveryField(t *testing.T) {
	observer := make(map[string]bool)
	styp := reflect.TypeOf(Scenario{})
	for _, name := range scenarioObservers {
		if _, ok := styp.FieldByName(name); !ok {
			t.Fatalf("observer field %s no longer exists", name)
		}
		observer[name] = true
	}
	check := func(name string, base, sc Scenario) {
		t.Helper()
		key, fork := ScenarioKey(sc) != ScenarioKey(base), ForkKey(sc) != ForkKey(base)
		switch {
		case observer[name]:
			if key {
				t.Errorf("observer %s changes the scenario key", name)
			}
		case !key:
			t.Errorf("%s is missing from the scenario key", name)
		case name == "Horizon" && fork:
			t.Errorf("Horizon changes the fork key")
		case name != "Horizon" && !fork:
			t.Errorf("%s is missing from the fork key", name)
		}
	}
	for i := 0; i < styp.NumField(); i++ {
		f := styp.Field(i)
		if !f.IsExported() {
			continue
		}
		var sc Scenario
		reflect.ValueOf(&sc).Elem().Field(i).Set(nonZero(t, f.Type))
		check(f.Name, Scenario{}, sc)
	}
	ptyp := reflect.TypeOf(PlatformSpec{})
	for i := 0; i < ptyp.NumField(); i++ {
		f := ptyp.Field(i)
		var spec PlatformSpec
		reflect.ValueOf(&spec).Elem().Field(i).Set(nonZero(t, f.Type))
		check("Platform."+f.Name, Scenario{Platform: &PlatformSpec{}}, Scenario{Platform: &spec})
	}
}

// goldenScenarioKeysDigest pins the key bytes of MainGrid plus the
// checkpoint tests' platform, fault and periodic variants. The keys back
// the sweep cache, the served digests (and so the disk spill) and the
// checkpoint fork keys: if this fails, every one of those moved.
const goldenScenarioKeysDigest = "f760b4448df6b91d8cea102a83bda6bdd88702c6bfb43aec2ec9bf334a73d326"

func TestScenarioKeysGolden(t *testing.T) {
	mix, err := workload.ParseMix("CG")
	if err != nil {
		t.Fatal(err)
	}
	periodic := Scenario{Mix: mix, Contention: workload.Medium, Policy: "RELIEF",
		Period: 5 * sim.Millisecond, Horizon: 20 * sim.Millisecond}
	variants := []func(*Scenario){
		func(sc *Scenario) {},
		func(sc *Scenario) { sc.Policy = "FCFS" },
		func(sc *Scenario) { sc.Topology = xbar.Crossbar },
		func(sc *Scenario) { sc.DetailedDRAM = true },
		func(sc *Scenario) { sc.BWPredictor = "ewma" },
		func(sc *Scenario) { sc.Faults = fault.Profile(0.02, 7) },
		func(sc *Scenario) {
			sc.Faults = &fault.Plan{Seed: 3, DieAt: map[int]sim.Time{0: 2 * sim.Millisecond}}
		},
		func(sc *Scenario) {
			sc.Faults = &fault.Plan{Seed: 42, Rates: fault.Rates{TaskSlow: 0.15, SlowFactor: 4}}
		},
		func(sc *Scenario) { sc.Horizon = 40 * sim.Millisecond },
		func(sc *Scenario) { sc.Horizon = 0 },
	}
	h := sha256.New()
	for _, sc := range MainGrid() {
		h.Write([]byte(ScenarioKey(sc) + "\n"))
	}
	for _, mutate := range variants {
		sc := periodic
		mutate(&sc)
		h.Write([]byte(ScenarioKey(sc) + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenScenarioKeysDigest {
		t.Errorf("scenario key digest = %s, want %s", got, goldenScenarioKeysDigest)
	}
}
