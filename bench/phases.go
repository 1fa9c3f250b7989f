package main

import (
	"fmt"
	"time"

	"prescount/internal/analysis"
	"prescount/internal/assign"
	"prescount/internal/coalesce"
	"prescount/internal/conflict"
	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/regalloc"
	"prescount/internal/sched"
	"prescount/internal/scratch"
	"prescount/internal/sdg"
)

// phaseTimes accumulates the self time and work counts of each Figure-4
// phase over the functions the phase runner compiled.
type phaseTimes struct {
	coalesce, sdg, sched, assign, regalloc, conflict time.Duration
	// cfg, liveness and rcg are the analyses forced ahead of the phases
	// that consume them; recomputations inside a phase (coalescing's
	// per-round liveness) stay in that phase's self time.
	cfg, liveness, rcg time.Duration
	// rest is the runner's own set-up outside every phase: input checks,
	// the working clone and the scratch arena.
	rest time.Duration

	compiles, coalesced, forced         int
	evictions, spilledVRegs, bankBreaks int
}

// phaseSum is the time inside the pipeline's phases and analyses.
func (p *phaseTimes) phaseSum() time.Duration {
	return p.coalesce + p.sdg + p.sched + p.assign + p.regalloc + p.conflict + p.cfg + p.liveness + p.rcg
}

// setPhaseMetrics reports the phase runner's per-layer metrics per pass
// over the traced inputs: self times in milliseconds and work counts.
func (p *phaseTimes) setPhaseMetrics(r *result, passes int) {
	n := float64(passes)
	for _, m := range []struct {
		name  string
		value float64
	}{
		{"coalesce.self_ms", ms(p.coalesce)},
		{"coalesce.removed", float64(p.coalesced)},
		{"sdg.self_ms", ms(p.sdg)},
		{"sched.self_ms", ms(p.sched)},
		{"assign.self_ms", ms(p.assign)},
		{"assign.forced", float64(p.forced)},
		{"regalloc.self_ms", ms(p.regalloc)},
		{"regalloc.evictions", float64(p.evictions)},
		{"regalloc.spilled_vregs", float64(p.spilledVRegs)},
		{"regalloc.bank_breaks", float64(p.bankBreaks)},
		{"conflict.self_ms", ms(p.conflict)},
		{"analysis.cfg_ms", ms(p.cfg)},
		{"analysis.liveness_ms", ms(p.liveness)},
		{"analysis.rcg_ms", ms(p.rcg)},
	} {
		r.set(m.name, m.value/n)
	}
}

// runPhases compiles f the way core.Compile does without a cache, but
// calls each phase's public entry point itself so every phase is timed on
// its own: coalesce.RunCached → sdg.Split (subgroups) → sched.Run →
// assign.PresCount → regalloc.Run → conflict.AnalyzeWith, over one shared
// analysis cache. CFG, liveness and the RCG are forced explicitly just
// before the phase that first reads them at each IR generation, so their
// cost is reported apart from the phases. Only the bpc method is run —
// the method every compile-cold and serve compile uses.
//
// The output must equal core.Compile's byte for byte; the package's
// fidelity test and every traced run check that.
func runPhases(f *ir.Func, opts core.Options, pt *phaseTimes) (*ir.Func, *conflict.Report, error) {
	if opts.Method != core.MethodBPC || opts.LinearScan || opts.DisableCoalesce || opts.DisableSched {
		return nil, nil, fmt.Errorf("phase runner: only the default bpc pipeline is run, got %+v", opts)
	}
	start := time.Now()
	if err := f.Verify(); err != nil {
		return nil, nil, fmt.Errorf("phase runner: input: %w", err)
	}
	file := opts.File.Normalize()
	if opts.Subgroups && !file.HasSubgroups() {
		return nil, nil, fmt.Errorf("phase runner: subgroups need a subgrouped file, got %v", opts.File)
	}
	work := f.Clone()
	ar := scratch.Get()
	defer scratch.Put(ar)
	ac := analysis.NewWithArena(work, ar)
	var mark time.Time
	lap := func(d *time.Duration) {
		now := time.Now()
		*d += now.Sub(mark)
		mark = now
	}
	mark = time.Now()
	pt.rest += mark.Sub(start)

	ac.CFG()
	lap(&pt.cfg)
	ac.Liveness()
	lap(&pt.liveness)
	cst := coalesce.RunCached(work, ac)
	lap(&pt.coalesce)
	pt.coalesced += cst.Coalesced

	if opts.Subgroups {
		sdg.Split(work, sdg.Options{MaxGroup: opts.SDGMaxGroup})
		ac.RetainCFG()
		lap(&pt.sdg)
	}
	sched.Run(work)
	ac.RetainCFG()
	lap(&pt.sched)

	ac.CFG()
	lap(&pt.cfg)
	lv := ac.Liveness()
	lap(&pt.liveness)
	g := ac.RCG()
	lap(&pt.rcg)
	ares := assign.PresCount(work, g, lv, file, assign.Options{
		THRES:            opts.THRES,
		DisablePressure:  opts.DisablePressure,
		DisableFreeHints: opts.DisableFreeHints,
	})
	lap(&pt.assign)
	pt.forced += len(ares.Forced)

	raOpts := regalloc.Options{
		Cfg: opts.File, Method: opts.Method, Analyses: ac,
		BankOf: ares.BankOf, FreeHints: ares.FreeHints,
	}
	if opts.Subgroups {
		raOpts.SubgroupGroups = sdg.Build(work).GroupOf()
		lap(&pt.sdg)
	}
	alloc, err := regalloc.Run(work, raOpts)
	lap(&pt.regalloc)
	if err != nil {
		return nil, nil, fmt.Errorf("phase runner: %s: %w", work.Name, err)
	}
	pt.evictions += alloc.Evictions
	pt.spilledVRegs += alloc.SpilledVRegs
	pt.bankBreaks += alloc.BankBreaks

	cf := ac.CFG()
	lap(&pt.cfg)
	rep := conflict.AnalyzeWith(work, opts.File, cf)
	lap(&pt.conflict)
	pt.compiles++
	return work, rep, nil
}
