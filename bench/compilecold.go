package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/pool"
	"prescount/internal/sim"
	"prescount/internal/workload"
)

// compileColdSLO is compile-cold's per-function latency limit: most suite
// functions compile in a few milliseconds, the giant unrolled CNN and
// DSA-OP kernels take hundreds.
const compileColdSLO = 100 * time.Millisecond

// Random draw of compile-cold: randomCount seeded workload.RandomSized
// functions of randomMinSize..randomMaxSize instructions each.
const (
	randomCount   = 32
	randomMinSize = 64
	randomMaxSize = 512
	randomMemSize = 1 << 16
)

// coldJob is one (function, register file) compile of compile-cold.
type coldJob struct {
	fn   *ir.Func
	opts core.Options
	// mem is the data memory the function's program needs for simulation.
	mem int
	// suite marks functions of the fixed paper suites (as opposed to the
	// seeded random draw); the deterministic quality metrics sum over them
	// only, so they repeat exactly whatever the seed.
	suite  bool
	instrs int
	// want is the input's simulated memory checksum, the oracle every
	// allocated version of the function must reproduce.
	want uint64
}

// coldFiles are the register files every compile-cold function compiles
// on: RV#1 with 1,024 registers (the candidate-list hot path) and RV#2
// with 32 (eviction and spilling), both 2-banked.
var coldFiles = []bankfile.Config{bankfile.RV1(2), bankfile.RV2(2)}

// coldJobs generates compile-cold's inputs from the seed: every function of
// SPECfp, CNN-KERNEL and DSA-OP plus a seeded draw of random functions, on
// each file of coldFiles, with DSA-OP also on the subgrouped DSA file. It
// simulates each input once for the checksum oracle. Jobs come back
// largest first, so the two workers finish together.
func coldJobs(seed int64) ([]*coldJob, error) {
	var jobs []*coldJob
	add := func(f *ir.Func, mem int, suite bool, files []bankfile.Config) error {
		sr, err := sim.Run(f, sim.Options{MemSize: mem})
		if err != nil {
			return fmt.Errorf("simulate input %s: %w", f.Name, err)
		}
		for _, file := range files {
			jobs = append(jobs, &coldJob{
				fn:     f,
				opts:   core.Options{File: file, Method: core.MethodBPC, Subgroups: file.NumSubgroups > 1, Workers: 1},
				mem:    mem,
				suite:  suite,
				instrs: f.NumInstrs(),
				want:   sr.MemChecksum,
			})
		}
		return nil
	}
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		files := coldFiles
		if s.Name == workload.DSAOP().Name {
			files = append(append([]bankfile.Config(nil), coldFiles...), bankfile.DSA(1024))
		}
		for _, p := range s.Programs {
			for _, f := range p.Funcs() {
				if err := add(f, p.MemSize, true, files); err != nil {
					return nil, err
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < randomCount; i++ {
		f := workload.RandomSized(rng.Int63(), randomMinSize+rng.Intn(randomMaxSize-randomMinSize+1))
		f.Name = fmt.Sprintf("rand%d", i)
		if err := add(f, randomMemSize, false, coldFiles); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].instrs > jobs[j].instrs })
	return jobs, nil
}

// coldOutput is one measured compile.
type coldOutput struct {
	res  *core.Result
	wall time.Duration
}

// coldWorkers is the number of compiles compile-cold runs at once.
const coldWorkers = 1

// runColdPass compiles every job once through core.CompileModule, one
// single-function module per job (each built from a fresh clone, so no
// per-function cached state such as the input fingerprint carries over
// between passes), on coldWorkers workers.
func runColdPass(jobs []*coldJob, out []coldOutput) error {
	return pool.Run(context.Background(), len(jobs), coldWorkers, func(_ context.Context, i int) error {
		j := jobs[i]
		m := ir.NewModule(j.fn.Name)
		m.Add(j.fn.Clone())
		start := time.Now()
		mr, err := core.CompileModule(m, j.opts)
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("compile %s on %v: %w", j.fn.Name, j.opts.File, err)
		}
		out[i] = coldOutput{res: mr.PerFunc[j.fn.Name], wall: wall}
		return nil
	})
}

func runCompileCold(cfg runConfig) (*result, error) {
	jobs, setupS, err := medianSetup(5, func() ([]*coldJob, error) { return coldJobs(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	fmt.Printf("compile-cold: cache=cold (no compile cache) jobs=%d workers=%d\n", len(jobs), coldWorkers)
	if cfg.trace {
		return traceCompileCold(cfg, jobs)
	}

	var t tally
	ref := make([]conflict.Report, len(jobs))
	out := make([]coldOutput, len(jobs))
	var walls, passWalls []float64
	// perJob collects each job's walls across passes; the compile
	// percentiles are taken over the per-job medians, so a tail made of a
	// few dozen giant kernels does not swing with one noisy pass.
	perJob := make([][]float64, len(jobs))
	var instrs, compiles int64
	heap0 := heapAllocated()
	start := time.Now()
	// Whole passes only, and no pass that would end well past the budget.
	for pass := 0; pass == 0 || time.Since(start).Seconds()+median(passWalls) <= cfg.seconds; pass++ {
		passStart := time.Now()
		if err := runColdPass(jobs, out); err != nil {
			return nil, err
		}
		passWalls = append(passWalls, time.Since(passStart).Seconds())
		for i, o := range out {
			j := jobs[i]
			t.attempted++
			compiles++
			instrs += int64(j.instrs)
			walls = append(walls, ms(o.wall))
			perJob[i] = append(perJob[i], ms(o.wall))
			if pass == 0 {
				ref[i] = *o.res.Report
			} else if *o.res.Report != ref[i] {
				t.fail("%s on %v: report differs between passes", j.fn.Name, j.opts.File)
			}
		}
	}
	measured := time.Since(start).Seconds()
	speed := cfg.probe.finish()
	heapBytes := heapAllocated() - heap0

	// Oracle: simulate every allocated function of the last pass and
	// compare its memory image with the input's.
	var static, spills, cycles atomic.Int64
	var mu sync.Mutex
	err = pool.Run(context.Background(), len(jobs), nproc, func(_ context.Context, i int) error {
		j, res := jobs[i], out[i].res
		sr, err := sim.Run(res.Func, sim.Options{File: j.opts.File, MemSize: j.mem})
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			t.fail("simulate %s on %v: %v", j.fn.Name, j.opts.File, err)
		case sr.MemChecksum != j.want:
			t.fail("%s on %v: memory checksum %x, input computes %x", j.fn.Name, j.opts.File, sr.MemChecksum, j.want)
		case j.suite:
			static.Add(int64(res.Report.StaticConflicts))
			spills.Add(int64(core.Spills(res.Report)))
			cycles.Add(sr.Cycles)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	within := 0
	for _, w := range walls {
		if w*speed <= ms(compileColdSLO) {
			within++
		}
	}
	fmt.Printf("compile-cold: passes=%d samples=%d measured=%.2fs\n", len(passWalls), len(walls), measured)
	r := t.newResult()
	r.set("setup_s", setupS)
	r.set("wall_s", median(passWalls))
	r.set("throughput_instrs_per_s", float64(instrs)/measured)
	r.set("throughput_rps", float64(compiles)/measured)
	jobWalls := make([]float64, len(jobs))
	for i, ws := range perJob {
		jobWalls[i] = median(ws)
	}
	r.set("compile_p50_ms", quantile(jobWalls, 0.50))
	r.set("compile_p99_ms", quantile(jobWalls, 0.99))
	r.set("latency_p50_ms", quantile(jobWalls, 0.50))
	r.set("latency_p99_ms", quantile(jobWalls, 0.99))
	r.set("slo_attainment", float64(within)/float64(len(walls)))
	r.set("success_frac", t.successFrac())
	r.set("static_conflicts", float64(static.Load()))
	r.set("spill_instrs", float64(spills.Load()))
	r.set("sim_cycles", float64(cycles.Load()))
	r.set("peak_rss_mb", peakRSSMiB())
	r.set("alloc_bytes_per_instr", float64(heapBytes)/float64(instrs))
	return r, nil
}

// traceCompileCold is compile-cold's traced run. It compiles every job
// serially twice — once through core.Compile, timed as a whole, and once
// through the phase runner, timed per phase — and checks the two outputs
// are byte-identical. trace.phase_coverage is the runner's phase sum over
// core.Compile's wall on the same functions; the remainder is the runner's
// own set-up (clone, input checks, arena) plus core's cancellation checks
// and result assembly. The phase runner gets half the budget; serve-repeat
// is not gated (README.md), so the other half runs serve-repeat's traced
// run, which measures the daemon's request path.
func traceCompileCold(cfg runConfig, jobs []*coldJob) (*result, error) {
	var t tally
	var pt phaseTimes
	var coreWall time.Duration
	var coreMallocs uint64
	var simTime time.Duration
	var simSteps int64
	passes := 0
	start := time.Now()
	for ; passes == 0 || time.Since(start).Seconds() < cfg.seconds/2; passes++ {
		for i, j := range jobs {
			t.attempted++
			var res *core.Result
			var fn *ir.Func
			var rep *conflict.Report
			var coreErr, phasesErr error
			compile := func() {
				m0 := mallocs()
				c0 := time.Now()
				res, coreErr = core.Compile(j.fn, j.opts)
				coreWall += time.Since(c0)
				coreMallocs += mallocs() - m0
			}
			phases := func() { fn, rep, phasesErr = runPhases(j.fn, j.opts, &pt) }
			// Alternate which side runs first, so neither inherits the
			// other's warm caches and scratch arenas on every function.
			if i%2 == 0 {
				compile()
				phases()
			} else {
				phases()
				compile()
			}
			if coreErr != nil {
				return nil, coreErr
			}
			if phasesErr != nil {
				return nil, phasesErr
			}
			if ir.Print(fn) != ir.Print(res.Func) || *rep != *res.Report {
				t.fail("%s on %v: phase runner output differs from core.Compile", j.fn.Name, j.opts.File)
			}
			if passes == 0 {
				s0 := time.Now()
				sr, err := sim.Run(fn, sim.Options{File: j.opts.File, MemSize: j.mem})
				simTime += time.Since(s0)
				if err != nil || sr.MemChecksum != j.want {
					t.fail("%s on %v: simulated output differs from input", j.fn.Name, j.opts.File)
				} else {
					simSteps += sr.Steps
				}
			}
		}
	}
	coverage := float64(pt.phaseSum()) / float64(coreWall)
	fmt.Printf("compile-cold trace: passes=%d compiles=%d core.Compile=%v phases=%v coverage=%.4f runner-rest=%v\n",
		passes, pt.compiles, coreWall, pt.phaseSum(), coverage, pt.rest)
	r := t.newResult()
	setLayerDefaults(r)
	pt.setPhaseMetrics(r, passes)
	r.set("core.compiles", float64(len(jobs)))
	r.set("core.compile_ms", ms(coreWall)/float64(passes))
	r.set("core.allocs_per_compile", float64(coreMallocs)/float64(pt.compiles))
	r.set("trace.phase_coverage", coverage)
	r.set("sim.self_ms", ms(simTime))
	r.set("sim.steps", float64(simSteps))

	s, err := setupServeRepeat()
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	serveCfg := cfg
	serveCfg.seconds = cfg.seconds / 2
	sr, err := traceServeRepeat(serveCfg, s)
	if err != nil {
		return nil, err
	}
	for _, name := range requestPathMetrics {
		r.Metrics[name] = sr.Metrics[name]
	}
	r.Correct = r.Correct && sr.Correct
	r.Attempted += sr.Attempted
	r.Failed += sr.Failed
	return r, nil
}
