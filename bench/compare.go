package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// capturedRun is one run's stdout as saved by collect.sh: a header line
// naming the workload, progress lines, and the result as the last line.
type capturedRun struct {
	file     string
	workload string
	trace    bool
	digest   string
	res      result
}

func readRuns(dir string) ([]capturedRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var runs []capturedRun
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		run := capturedRun{file: path}
		var last string
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			for _, field := range strings.Fields(line) {
				switch k, v, _ := strings.Cut(field, "="); k {
				case "workload":
					run.workload = v
				case "trace":
					run.trace = v == "1"
				case "digest":
					run.digest = v
				}
			}
			if strings.TrimSpace(line) != "" {
				last = line
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if run.workload == "" || json.Unmarshal([]byte(last), &run.res) != nil {
			return nil, fmt.Errorf("%s: not a captured benchmark run (no workload header or result line)", path)
		}
		runs = append(runs, run)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no *.out run captures", dir)
	}
	return runs, nil
}

// series groups one side's values per workload and metric, in file order.
type series map[string]map[string][]float64

func group(runs []capturedRun, problems *[]string) series {
	out := series{}
	digests := map[string]string{}
	for _, r := range runs {
		if !r.res.Correct || r.res.Failed != 0 {
			*problems = append(*problems, fmt.Sprintf("%s: incorrect run (%d of %d failed)", r.file, r.res.Failed, r.res.Attempted))
		}
		if r.digest != "" {
			if d, ok := digests[r.workload]; ok && d != r.digest {
				*problems = append(*problems, fmt.Sprintf("%s: table digest %s differs from %s", r.file, r.digest, d))
			}
			digests[r.workload] = r.digest
		}
		if out[r.workload] == nil {
			out[r.workload] = map[string][]float64{}
		}
		for name, m := range r.res.Metrics {
			out[r.workload][name] = append(out[r.workload][name], m.Value)
		}
	}
	return out
}

// runCompare implements "bench compare <parent-dir> [<change-dir>]". With
// one directory it prints each workload × metric's median, quartiles and
// relative spread (IQR / median) against the metric's bound. With two it
// adds the change's figures and a verdict per BENCHMARK.json's bounds and
// the rule of the choosing-metrics guide §8:
//
//   - better: the change wins at least 9 of 10 of the pairs (i-th parent
//     run against i-th change run, ties counting for neither) and the
//     medians differ by more than the parent's own IQR;
//   - worse: the change's median is worse than the parent's by more than
//     the bound, and the parent's spread is within the bound;
//   - unresolved: the parent's spread is wider than the bound (unless every
//     change run beats every parent run), so "no worse" cannot be shown;
//   - same: none of the above — no worse than the bound.
//
// Per-layer metrics have no bound and get no verdict.
func runCompare(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: bench compare <parent-dir> [<change-dir>]")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var problems []string
	sides := make([]series, len(args))
	for i, dir := range args {
		runs, err := readRuns(dir)
		if err != nil {
			return err
		}
		sides[i] = group(runs, &problems)
	}
	type row struct {
		name, better string
		bound        float64
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		rows = append(rows, row{m.Name, m.Better, math.NaN()})
	}
	var workloads []string
	for w := range sides[0] {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	if len(sides) == 1 {
		fmt.Fprintln(tw, "workload\tmetric\tn\tq1\tmedian\tq3\tspread\tbound\t")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tn\tparent q1\tmedian\tq3\tchange q1\tmedian\tq3\tdelta\twins\tverdict\t")
	}
	for _, w := range workloads {
		for _, m := range rows {
			a := sides[0][w][m.name]
			if len(a) == 0 {
				continue
			}
			q1, med, q3 := quantile(a, 0.25), median(a), quantile(a, 0.75)
			spread := relSpread(a)
			if len(sides) == 1 {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%s\t\n", w, m.name, len(a), q1, med, q3, spread, boundStr(m.bound))
				continue
			}
			b := sides[1][w][m.name]
			if len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t-\t-\t-\t-\t-\tmissing\t\n", w, m.name, len(a), q1, med, q3)
				continue
			}
			v, wins, pairs := verdict(a, b, m.better, m.bound)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%+.4f\t%d/%d\t%s\t\n", w, m.name, len(a), q1, med, q3,
				quantile(b, 0.25), median(b), quantile(b, 0.75), relDelta(med, median(b)), wins, pairs, v)
		}
	}
	tw.Flush()
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s) in the captured runs", len(problems))
	}
	return nil
}

// relSpread is the IQR as a share of the median, the quantity a metric's
// bound must exceed for a run-to-run comparison to be resolved.
func relSpread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(quantile(xs, 0.75)-quantile(xs, 0.25)) / math.Abs(med)
}

func relDelta(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return (to - from) / math.Abs(from)
}

func boundStr(b float64) string {
	if math.IsNaN(b) {
		return "-"
	}
	return fmt.Sprintf("%.4g", b)
}

// verdict compares the change's runs b with the parent's runs a.
func verdict(a, b []float64, better string, bound float64) (string, int, int) {
	gain := func(x, y float64) float64 { // > 0 when y improves on x
		if better == "higher" {
			return y - x
		}
		return x - y
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if gain(a[i], b[i]) > 0 {
			wins++
		}
	}
	if math.IsNaN(bound) {
		return "-", wins, pairs
	}
	medA, medB := median(a), median(b)
	iqrA := quantile(a, 0.75) - quantile(a, 0.25)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain(medA, medB) > iqrA {
		return "better", wins, pairs
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	if relSpread(a) > bound && !allBetter {
		return "unresolved", wins, pairs
	}
	if medA != 0 && -gain(medA, medB)/math.Abs(medA) > bound {
		return "worse", wins, pairs
	}
	return "same", wins, pairs
}
