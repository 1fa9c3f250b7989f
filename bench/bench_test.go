package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"prescount/internal/core"
	"prescount/internal/ir"
)

// TestPhaseRunnerMatchesCoreCompile pins the traced run's phase runner to
// the pipeline it times: on every compile-cold input and register file,
// its allocated function and conflict report equal core.Compile's byte for
// byte.
func TestPhaseRunnerMatchesCoreCompile(t *testing.T) {
	jobs, err := coldJobs(1)
	if err != nil {
		t.Fatal(err)
	}
	var pt phaseTimes
	for _, j := range jobs {
		want, err := core.Compile(j.fn, j.opts)
		if err != nil {
			t.Fatal(err)
		}
		fn, rep, err := runPhases(j.fn, j.opts, &pt)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := ir.Print(fn), ir.Print(want.Func); got != exp {
			t.Fatalf("%s on %v: runner output differs from core.Compile:\n%s\nwant:\n%s", j.fn.Name, j.opts.File, got, exp)
		}
		if *rep != *want.Report {
			t.Fatalf("%s on %v: report %+v, core.Compile gives %+v", j.fn.Name, j.opts.File, *rep, *want.Report)
		}
	}
	if pt.compiles != len(jobs) || pt.phaseSum() <= 0 {
		t.Fatalf("runner recorded %d compiles and %v of phases over %d jobs", pt.compiles, pt.phaseSum(), len(jobs))
	}
}

// TestPhaseRunnerRejectsOtherPipelines keeps the runner from silently timing a
// pipeline it does not reproduce.
func TestPhaseRunnerRejectsOtherPipelines(t *testing.T) {
	jobs, err := coldJobs(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := jobs[0].opts
	opts.Method = core.MethodBRC
	if _, _, err := runPhases(jobs[0].fn, opts, &phaseTimes{}); err == nil {
		t.Fatal("runner accepted method brc")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists every run
// reports in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark reports %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestQuantileMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{7, 1, 3, 5}
	// statistics.quantiles([1, 3, 5, 7], n=4) == [1.5, 4.0, 6.5]
	for _, c := range []struct{ q, want float64 }{{0.25, 1.5}, {0.5, 4}, {0.75, 6.5}, {0, 1}, {1, 7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Fatal("quantile sorted its input in place")
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"faster everywhere", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "lower", "better"},
		{"unchanged", parent, "lower", "same"},
		{"slower beyond bound", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "lower", "worse"},
		{"higher is better", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "higher", "better"},
	} {
		if got, _, _ := verdict(parent, c.change, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _, _ := verdict(noisy, noisy, "lower", 0.1); got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
}

// TestScaleTimes pins which metrics the host-speed factor touches: times
// are multiplied by it, rates divided, counts and fractions left alone.
func TestScaleTimes(t *testing.T) {
	r := &result{Metrics: map[string]metric{}}
	r.set("wall_s", 2)
	r.set("compile_p50_ms", 10)
	r.set("throughput_rps", 100)
	r.set("throughput_instrs_per_s", 1000)
	r.set("static_conflicts", 7)
	r.set("slo_attainment", 0.5)
	r.scaleTimes(0.8)
	for name, want := range map[string]float64{
		"wall_s": 1.6, "compile_p50_ms": 8, "throughput_rps": 125, "throughput_instrs_per_s": 1250,
		"static_conflicts": 7, "slo_attainment": 0.5,
	} {
		if got := r.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s scaled to %v, want %v", name, got, want)
		}
	}
}

// TestSpeedProbe checks the probe samples a plausible step time and that
// finishing it twice returns the same factor.
func TestSpeedProbe(t *testing.T) {
	p := startProbe()
	f := p.finish()
	if p.count() < 1 || p.stepNS() <= 0 || f <= 0 || math.IsInf(f, 0) {
		t.Fatalf("probe: %d samples, %v ns/step, factor %v", p.count(), p.stepNS(), f)
	}
	if again := p.finish(); again != f {
		t.Fatalf("second finish returned %v, first %v", again, f)
	}
}

// TestRequestPathMetricsArePerLayer keeps the metrics compile-cold's
// traced run takes from serve-repeat's on the per-layer list.
func TestRequestPathMetricsArePerLayer(t *testing.T) {
	layer := map[string]bool{}
	for _, m := range perLayer {
		layer[m.name] = true
	}
	for _, name := range requestPathMetrics {
		if !layer[name] {
			t.Errorf("%s is not a per-layer metric", name)
		}
	}
}
