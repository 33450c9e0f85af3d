package benchmark

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// smokeRun runs one small run, retrying an open-loop run that a busy box
// made invalid.
func smokeRun(t *testing.T, workload string, trace bool) *Result {
	t.Helper()
	o := Options{Workload: workload, Seed: 1, Seconds: 0.25, Trace: trace, Scale: 0.2, BurstPeriod: 300 * time.Millisecond}
	if trace {
		o.Seconds = 0.4 // a traced run splits its window between the wire and the replay
		o.TracePath = t.TempDir() + "/trace.jsonl"
	}
	var err error
	for try := 0; try < 3; try++ {
		var res *Result
		if res, err = Run(o); err == nil {
			return res
		}
		if !errors.Is(err, ErrInvalid) {
			break
		}
	}
	t.Fatalf("%s (traced %v): %v", workload, trace, err)
	return nil
}

func checkMetrics(t *testing.T, res *Result, want []manifestMetric) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d, correct %v", res.Workload, res.Attempted, res.Failed, res.Correct)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json not emitted", res.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", res.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload small, untraced and traced, and holds the
// output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark has %v", len(m.Workloads), Workloads())
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json has workload %q (%s), benchmark has %q (%s)", w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for i, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		listed := [][]manifestMetric{m.EndToEnd, m.PerLayer}[i]
		if len(defs) != len(listed) {
			t.Fatalf("metric list %d: %d in BENCHMARK.json, %d in the benchmark", i, len(listed), len(defs))
		}
		for j, d := range defs {
			if got := (manifestMetric{d.Name, d.Unit, d.Better, d.Bound}); got != listed[j] {
				t.Errorf("BENCHMARK.json has %+v, benchmark has %+v", listed[j], got)
			}
		}
	}

	for _, w := range Workloads() {
		res := smokeRun(t, w, false)
		checkMetrics(t, res, m.EndToEnd)
		for _, d := range m.EndToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, res.Metrics[d.Name].Value)
			}
		}
		traced := smokeRun(t, w, true)
		checkMetrics(t, traced, m.PerLayer)

		// Every round of paper_solo bills the same logical bytes and fires
		// the same rules, so its exact counts repeat whatever the number of
		// rounds a run got through.
		if w == "paper_solo" {
			again, tracedAgain := smokeRun(t, w, false), smokeRun(t, w, true)
			if a, b := res.Metrics["bytes_scanned_kb_per_query"], again.Metrics["bytes_scanned_kb_per_query"]; a != b {
				t.Errorf("%s: bytes_scanned_kb_per_query %v then %v with the same seed", w, a.Value, b.Value)
			}
			if a, b := traced.Metrics["optimizer.rules_fired_per_query"], tracedAgain.Metrics["optimizer.rules_fired_per_query"]; a != b {
				t.Errorf("%s: optimizer.rules_fired_per_query %v then %v with the same seed", w, a.Value, b.Value)
			}
		}
	}
}

// TestSameSeedSameStatements: a seed fixes the statement list, and another
// seed changes it.
func TestSameSeedSameStatements(t *testing.T) {
	d := dataInfo{minDate: 2450815, maxDate: 2450815 + 1789}
	list := func(w *workload, seed int64) []string {
		gen, err := w.newGen(seed, d)
		if err != nil {
			t.Fatal(err)
		}
		src := &source{width: w.slots(2), gen: gen}
		var out []string
		for row := 99; row >= 0; row-- { // any asking order gives the same rows
			for slot := 0; slot < src.width; slot++ {
				out = append(out, src.at(row, slot))
			}
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		a, b, c := list(w, 1), list(w, 1), list(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different statement lists", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same statement list", w.name)
		}
	}
	if !reflect.DeepEqual(ingestBatch(1, d, 3), ingestBatch(1, d, 3)) || reflect.DeepEqual(ingestBatch(1, d, 3), ingestBatch(1, d, 4)) {
		t.Error("ingest batches are not a function of (seed, index)")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "stmt", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: 10..60 covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "a.1", Start: 10, End: 25}, // grandchild counts against a only
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 15, 3: 30, 4: 30, 5: 15}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

// TestSpread pins the quartile rule to Python's statistics.quantiles(n=4).
func TestSpread(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s, m := Spread([]float64{7}); s != 0 || m != 7 {
		t.Errorf("Spread of one value = %v, %v", s, m)
	}
}
