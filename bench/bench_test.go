package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestSmoke runs every workload at 1/50 of its length with its output
// checks on, untraced, and one traced run, whose fill-in passes drive
// every workload traced.
func TestSmoke(t *testing.T) {
	o := runOpts{seed: 1, seconds: 20 * fillScale, scale: fillScale, workdir: t.TempDir()}
	for _, w := range workloads {
		res := runUntraced(w, o)
		if raceEnabled && !w.closed {
			continue // run for the race detector only
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; d.Name != "peak_rss_mb" && (!ok || !(v.Value > 0)) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, d.Name, v)
			}
		}
	}
	o.seconds *= 2
	res := runTraced(fleetChurn, o)
	if (!res.Correct || res.Failed != 0) && !raceEnabled {
		t.Errorf("traced fleet-churn: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, d := range perLayer {
		if v, ok := res.Metrics[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("traced run: %s = %v, want a finite value", d.Name, v)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n             int
		q, used, want float64
	}{
		{n: 1000, q: 0.99, used: 0.99, want: 990.01},
		{n: 100, q: 0.99, used: 0.90, want: 90.1},
		{n: 100, q: 0.90, used: 0.90, want: 90.1},
		{n: 50, q: 0.90, used: 0.80, want: 40.2},
		{n: 10, q: 0.90, used: 0.50, want: 5.5},
	} {
		xs := seq(c.n)
		v, used := tail(xs, c.q)
		if math.Abs(used-c.used) > 1e-9 || math.Abs(v-c.want) > 1e-9 {
			t.Errorf("tail(1..%d, %g) = %g at p%g, want %g at p%g", c.n, c.q, v, 100*used, c.want, 100*c.used)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if c.n >= 20 && beyond < tailSamples {
			t.Errorf("tail(1..%d, %g): %d samples beyond, want ≥ %d", c.n, c.q, beyond, tailSamples)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 3}, [3]float64{2, 5, 8}}, // extrapolates past the data, as Python does
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles = %v, want %v", got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	latency := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	around := func(center, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = center + step*float64(i%5-2)
		}
		return xs
	}
	parent := around(100, 1)
	for _, c := range []struct {
		name          string
		parent, chang []float64
		want          string
	}{
		{"clear gain", parent, around(80, 1), "improved"},
		{"small shift", parent, around(104, 1), "within bound"},
		{"past the bound", parent, around(115, 1), "regressed"},
		{"parent spread wider than the bound", around(100, 10), around(101, 10), "unresolved"},
		{"wide spread, but every run better", around(100, 10), around(40, 1), "improved"},
		{"too few pairs", parent[:9], around(80, 1)[:9], "unresolved"},
	} {
		if got, _ := verdict(latency, c.parent, c.chang); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	// A gain needs nine wins in ten: with two pairs lost it stays within
	// the bound even though the median moved past the parent's spread.
	change := around(90, 1)
	change[0], change[1] = 120, 120
	if got, wins := verdict(latency, parent, change); got != "within bound" || wins != 8 {
		t.Errorf("8/10 wins: verdict = %q with %d wins, want \"within bound\" with 8", got, wins)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric and workload
// tables in this package in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %q, want %q", spec.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %q, want %q", spec.Paths, want)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, want %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v,\nwant %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v,\nwant %+v", spec.PerLayer, perLayer)
	}
}
