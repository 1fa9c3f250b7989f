package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"strings"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/core"
	"prescount/internal/experiments"
	"prescount/internal/portfolio"
	"prescount/internal/workload"
)

// paperSweepSLO is paper-sweep's per-experiment latency limit. At
// reference speed the stages fall in three groups — Table VII, Table I
// and Fig. 1 under about 0.4 s, RV#2, the methods comparison and
// Table VI between about 0.85 and 1.7 s, the RV#1 sweep above 2 s — and
// the limit sits in the widest gap, so the share of stages within it
// changes only when a stage's time changes by about half.
const paperSweepSLO = 550 * time.Millisecond

// sweepWorkers is the number of compiles a sweep runs at once.
const sweepWorkers = 1

// paperSuites generates the three paper suites, as every sweep does for
// its Fig. 1 and methods stages.
func paperSuites() []*workload.Suite {
	return []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()}
}

// sweepStage is one timed experiments call of a sweep.
type sweepStage struct {
	name  string
	wall  time.Duration
	cache compilecache.Stats
}

// sweepOutcome is one full regeneration of the paper tables.
type sweepOutcome struct {
	wall    time.Duration
	digest  [sha256.Size]byte
	stages  []sweepStage
	cache   compilecache.Stats
	static  int64
	spills  int64
	cycles  int64
	compErr error
}

// runSweep regenerates every table benchtab -exp all prints (Fig. 1,
// Table I, the RV#1 and RV#2 sweeps with their tables, Tables VI and VII,
// the methods comparison and the headline) on a fresh run-wide shared
// compile cache, and digests the rendered tables with the timing columns
// removed.
func runSweep() *sweepOutcome {
	cache := compilecache.New()
	experiments.SharedCache = cache
	experiments.Workers = sweepWorkers
	defer func() { experiments.SharedCache = nil }()
	out := &sweepOutcome{}
	h := sha256.New()
	start := time.Now()
	stage := func(name string, fn func(h hash.Hash) error) {
		if out.compErr != nil {
			return
		}
		before := cache.Stats()
		s0 := time.Now()
		err := fn(h)
		out.stages = append(out.stages, sweepStage{name: name, wall: time.Since(s0), cache: cache.Stats().Delta(before)})
		if err != nil {
			out.compErr = fmt.Errorf("%s: %w", name, err)
		}
	}
	stage("fig1", func(h hash.Hash) error {
		for _, u := range []struct {
			s       *workload.Suite
			perFunc bool
		}{{workload.SPECfp(), true}, {workload.CNN(), false}} {
			r, err := experiments.Fig1(u.s, u.perFunc)
			if err != nil {
				return err
			}
			io.WriteString(h, r.String())
		}
		return nil
	})
	stage("table1", func(h hash.Hash) error {
		rows, err := experiments.Table1()
		if err == nil {
			io.WriteString(h, experiments.Table1String(rows))
		}
		return err
	})
	var rv1, rv2 *experiments.Sweep
	stage("rv1", func(h hash.Hash) error {
		var err error
		if rv1, err = experiments.RV1(); err == nil {
			io.WriteString(h, experiments.Fig10String(rv1))
			io.WriteString(h, experiments.Table2String(experiments.Table2(rv1, experiments.StaticMetric, "")))
			io.WriteString(h, experiments.Table3String(rv1, experiments.Table3(rv1, experiments.StaticMetric)))
			for _, bank := range rv1.Banks {
				fmt.Fprintf(h, "%d %.6f\n", bank, rv1.GeomeanReduction(bank, core.MethodBPC, core.MethodBCR, experiments.StaticMetric))
			}
		}
		return err
	})
	stage("rv2", func(h hash.Hash) error {
		var err error
		if rv2, err = experiments.RV2(); err == nil {
			io.WriteString(h, experiments.Fig11String(rv2))
			rows := experiments.Table2(rv2, experiments.StaticMetric, "STATIC")
			rows = append(rows, experiments.Table2(rv2, experiments.DynamicMetric, "DYNAMIC")...)
			io.WriteString(h, experiments.Table2String(rows))
			io.WriteString(h, experiments.Table3String(rv2, experiments.Table3(rv2, experiments.StaticMetric)))
		}
		return err
	})
	stage("table6", func(h hash.Hash) error {
		rows, err := experiments.Table6()
		if err == nil {
			io.WriteString(h, experiments.Table6String(rows))
		}
		return err
	})
	stage("table7", func(h hash.Hash) error {
		rows, err := experiments.Table7()
		if err == nil {
			io.WriteString(h, experiments.Table7String(rows))
		}
		return err
	})
	stage("methods", func(h hash.Hash) error {
		mc, err := experiments.CompareMethods(paperSuites(), bankfile.RV2(2))
		if err != nil {
			return err
		}
		for i := range mc.Cells {
			mc.Cells[i].WallNS = 0 // the only timing column
		}
		io.WriteString(h, experiments.MethodCompareString(mc))
		return nil
	})
	out.wall = time.Since(start)
	out.cache = cache.Stats()
	copy(out.digest[:], h.Sum(nil))
	if out.compErr == nil {
		for _, sw := range []*experiments.Sweep{rv1, rv2} {
			for _, bank := range sw.Banks {
				for _, m := range experiments.Methods {
					out.static += sw.Total(bank, m, experiments.StaticMetric)
					out.spills += sw.Total(bank, m, experiments.SpillMetric)
					out.cycles += sw.Total(bank, m, func(c experiments.Counts) int64 { return c.Cycles })
				}
			}
		}
	}
	return out
}

// suiteInstrs counts the input instructions of the paper suites.
func suiteInstrs(suites []*workload.Suite) int64 {
	var n int64
	for _, s := range suites {
		for _, p := range s.Programs {
			for _, f := range p.Funcs() {
				n += int64(f.NumInstrs())
			}
		}
	}
	return n
}

func runPaperSweep(cfg runConfig) (*result, error) {
	instrs, setupS, err := medianSetup(31, func() (int64, error) { return suiteInstrs(paperSuites()), nil }, nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("paper-sweep: cache=cold (fresh shared compile cache per sweep) suite_instrs=%d workers=%d\n", instrs, sweepWorkers)
	if cfg.trace {
		return tracePaperSweep()
	}
	var t tally
	var sweeps []*sweepOutcome
	var walls, stageWalls []float64
	perStage := map[string][]float64{}
	heap0 := heapAllocated()
	start := time.Now()
	// At least two sweeps, so the table digest is checked within the run,
	// and no sweep that would end well past the budget.
	for len(sweeps) < 2 || time.Since(start).Seconds()+median(walls) <= cfg.seconds {
		sw := runSweep()
		t.attempted += int64(len(sw.stages))
		if sw.compErr != nil {
			return nil, sw.compErr
		}
		if len(sweeps) > 0 && sw.digest != sweeps[0].digest {
			t.fail("sweep %d: table digest %x differs from the first sweep's %x", len(sweeps), sw.digest[:8], sweeps[0].digest[:8])
		}
		sweeps = append(sweeps, sw)
		walls = append(walls, sw.wall.Seconds())
		for _, st := range sw.stages {
			stageWalls = append(stageWalls, ms(st.wall))
			perStage[st.name] = append(perStage[st.name], ms(st.wall))
		}
	}
	measured := time.Since(start).Seconds()
	speed := cfg.probe.finish()
	heapBytes := heapAllocated() - heap0
	var compiles int64
	within := 0
	for _, sw := range sweeps {
		compiles += sw.cache.FullHits + sw.cache.FullMisses
	}
	for _, w := range stageWalls {
		if w*speed <= ms(paperSweepSLO) {
			within++
		}
	}
	first := sweeps[0]
	fmt.Printf("paper-sweep: sweeps=%d digest=%x compiles/sweep=%d full_hit_rate=%.4f\n",
		len(sweeps), first.digest[:8], first.cache.FullHits+first.cache.FullMisses, first.cache.FullHitRate())
	r := t.newResult()
	r.set("setup_s", setupS)
	r.set("wall_s", median(walls))
	r.set("throughput_instrs_per_s", float64(instrs*int64(len(sweeps)))/measured)
	r.set("throughput_rps", float64(compiles)/measured)
	// The stage percentiles are taken over each stage's median across the
	// run's sweeps, so one slow sweep does not make the tail.
	var stageMedians []float64
	for _, ws := range perStage {
		stageMedians = append(stageMedians, median(ws))
	}
	fmt.Printf("paper-sweep: stage medians (ms, unscaled): %v\n", perStageMedians(perStage))
	r.set("compile_p50_ms", quantile(stageMedians, 0.50))
	r.set("compile_p99_ms", quantile(stageMedians, 0.99))
	r.set("latency_p50_ms", quantile(stageMedians, 0.50))
	r.set("latency_p99_ms", quantile(stageMedians, 0.99))
	r.set("slo_attainment", float64(within)/float64(len(stageWalls)))
	r.set("success_frac", t.successFrac())
	r.set("static_conflicts", float64(first.static))
	r.set("spill_instrs", float64(first.spills))
	r.set("sim_cycles", float64(first.cycles))
	r.set("peak_rss_mb", peakRSSMiB())
	r.set("alloc_bytes_per_instr", float64(heapBytes)/float64(instrs*int64(len(sweeps))))
	return r, nil
}

// perStageMedians renders each stage's median wall, for the log.
func perStageMedians(perStage map[string][]float64) string {
	var b strings.Builder
	for _, name := range []string{"fig1", "table1", "rv1", "rv2", "table6", "table7", "methods"} {
		fmt.Fprintf(&b, " %s=%.1f", name, median(perStage[name]))
	}
	return b.String()
}

// tracePaperSweep is paper-sweep's traced run: one sweep with a span
// around each experiments call, the shared cache's counters at its end, and
// portfolio.CompileModule timed over the three suites.
func tracePaperSweep() (*result, error) {
	var t tally
	m0 := mallocs()
	sw := runSweep()
	sweepMallocs := mallocs() - m0
	if sw.compErr != nil {
		return nil, sw.compErr
	}
	t.attempted += int64(len(sw.stages))
	r := t.newResult()
	setLayerDefaults(r)
	for _, st := range sw.stages {
		r.set("experiments."+st.name+"_ms", ms(st.wall))
	}
	cs := sw.cache
	compiles := cs.FullHits + cs.FullMisses
	r.set("core.compiles", float64(compiles))
	r.set("core.allocs_per_compile", float64(sweepMallocs)/float64(compiles))
	r.set("compilecache.full_hit_rate", cs.FullHitRate())
	r.set("compilecache.prefix_hit_rate", cs.PrefixHitRate())
	r.set("compilecache.alloc_hit_rate", cs.AllocHitRate())
	r.set("compilecache.bytes_retained", float64(cs.BytesRetained))
	r.set("compilecache.evictions", float64(cs.Evictions))

	// Portfolio racing over every suite function on RV#2 (2 banks), with
	// its own cold cache so the shared prefix is computed inside the race.
	opts := core.Options{File: bankfile.RV2(2), Cache: compilecache.New(), Workers: nproc}
	var raceWall time.Duration
	var run, won int
	for _, s := range paperSuites() {
		for _, p := range s.Programs {
			for _, m := range p.Modules {
				t.attempted++
				start := time.Now()
				mr, err := portfolio.CompileModule(context.Background(), m, opts, portfolio.Config{})
				raceWall += time.Since(start)
				if err != nil {
					t.fail("portfolio %s/%s: %v", s.Name, m.Name, err)
					continue
				}
				for _, rr := range mr.PerFunc {
					won++
					for _, c := range rr.Candidates {
						if !c.Skipped && c.Err == nil {
							run++
						}
					}
				}
			}
		}
	}
	r.set("portfolio.race_ms", ms(raceWall))
	r.set("portfolio.useful_frac", float64(won)/float64(run))
	r.Correct = t.failed == 0
	r.Attempted, r.Failed = t.attempted, t.failed
	fmt.Printf("paper-sweep trace: digest=%x compiles=%d race=%v candidates=%d winners=%d\n", sw.digest[:8], compiles, raceWall, run, won)
	return r, nil
}
