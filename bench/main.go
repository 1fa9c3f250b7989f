// Command bench is the repository's end-to-end benchmark: one command that
// runs a named workload from a seed, checks every output against an
// independent oracle, and prints each metric by name with its unit.
//
//	bench --workload compile-cold --seed 1 --seconds 10 --trace 0
//	bench compare <parent-dir> [<change-dir>]
//
// With --trace 0 the last stdout line carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 a separate traced run carries the
// per-layer metrics, measured by timing calls into each layer's public
// functions from this package. See README.md for the workloads, the
// metric → layer → workload table and how to compare two commits.
//
// Every time and rate a run reports is scaled to a reference host speed
// that a probe samples throughout the run (probe.go); the unscaled values
// are printed on the line before the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// nproc bounds every source of load: client connections, compile workers
// and open-loop senders. The benchmark loads the program from a single
// process, so more would measure the scheduler, not the program.
var nproc = runtime.NumCPU()

// metric is one named measurement of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// probe samples the host's speed from before set-up to the end of the
	// measurement; a runner that needs the run's speed factor before it
	// returns (to hold scaled latencies against a limit) finishes it.
	probe *speedProbe
}

// workloads maps each workload name to its runner. A runner returns the
// run's result, or an error when the run could not produce a valid
// measurement at all (the process then exits non-zero without a result).
var workloads = map[string]func(runConfig) (*result, error){
	"compile-cold": runCompileCold,
	"paper-sweep":  runPaperSweep,
	"serve-repeat": runServeRepeat,
	"serve-unique": runServeUnique,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d nproc=%d\n", *workload, *seed, *seconds, *trace, nproc)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, probe: startProbe()}
	res, err := run(cfg)
	speed := cfg.probe.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	raw, err := json.Marshal(res.Metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("unscaled metrics: %s\n", raw)
	fmt.Printf("host speed: probe median %.4f ns/step over %d samples, reference %.1f ns/step, speed factor %.4f\n",
		cfg.probe.stepNS(), cfg.probe.count(), refStepNS, speed)
	res.scaleTimes(speed)
	if err := checkMetrics(res, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tally counts a run's attempted items and their failures. Every failed,
// refused or wrong-output item is a failure and makes the run incorrect.
type tally struct {
	attempted, failed int64
	firstErr          string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "bench: wrong output:", t.firstErr)
	}
}

// newResult starts a result from the tally; the runner adds the metrics.
func (t *tally) newResult() *result {
	return &result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
}

// set records a metric with the unit its list in layers.go declares; a
// name on neither list is a bug in the benchmark.
func (r *result) set(name string, value float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// scaleTimes converts the run's times and rates to the reference host
// speed (probe.go): times are multiplied by the speed factor, rates
// divided by it. Counts and fractions are left as measured.
func (r *result) scaleTimes(speed float64) {
	for name, m := range r.Metrics {
		switch m.Unit {
		case "s", "ms":
			m.Value *= speed
		case "1/s", "instr/s":
			m.Value /= speed
		default:
			continue
		}
		r.Metrics[name] = m
	}
}

// successFrac is the share of attempted items that completed with a
// verified output: 1 − (failed + refused + wrong) / attempted.
func (t *tally) successFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// medianSetup runs setup n times and returns the last result together with
// the median setup time, so work moved into set-up shows without one slow
// repetition dominating. release (may be nil) frees every result but the
// last.
func medianSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var out T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(out)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	return out, median(times), nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM). Off
// Linux it falls back to the runtime's view of memory obtained from the OS.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// heapAllocated returns the cumulative bytes allocated on the heap.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mallocs returns the cumulative heap object allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
