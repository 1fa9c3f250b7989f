// Package core implements the paper's Figure 4 register-allocation
// pipeline:
//
//	Register Coalescing → [SDG-based Subgroup Splitting] →
//	Pre-allocation Scheduling → [RCG-based Bank Assignment] →
//	Enhanced Register Allocation
//
// and the per-function / per-module statistics the evaluation section
// reports. The bracketed phases are the paper's contribution: subgroup
// splitting runs only for DSA (bank-subgroup) register files, and RCG bank
// assignment runs only for the bpc (PresCount) method.
package core

import (
	"context"
	"fmt"
	"time"

	"prescount/internal/analysis"
	"prescount/internal/assign"
	"prescount/internal/bankfile"
	"prescount/internal/coalesce"
	"prescount/internal/compilecache"
	"prescount/internal/conflict"
	"prescount/internal/ir"
	"prescount/internal/pool"
	"prescount/internal/regalloc"
	"prescount/internal/renumber"
	"prescount/internal/sched"
	"prescount/internal/scratch"
	"prescount/internal/sdg"
	"prescount/internal/sim"
	"prescount/internal/tv"
	"prescount/internal/verify"
)

// Method aliases the allocator's method selector (non / bcr / bpc).
type Method = regalloc.Method

// Re-exported method constants.
const (
	MethodNon      = regalloc.MethodNon
	MethodBCR      = regalloc.MethodBCR
	MethodBPC      = regalloc.MethodBPC
	MethodBRC      = regalloc.MethodBRC
	MethodBinpack  = regalloc.MethodBinpack
	MethodColoring = regalloc.MethodColoring
)

// ParseMethod maps a method name ("non", "bcr", "bpc", "brc", "binpack",
// "coloring") to its Method constant. The portfolio modes ("portfolio",
// "auto") are not single methods — internal/portfolio handles them above
// this layer — so they are rejected here.
func ParseMethod(s string) (Method, bool) {
	for _, m := range []Method{MethodNon, MethodBCR, MethodBPC, MethodBRC, MethodBinpack, MethodColoring} {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

// Options configures a pipeline run.
type Options struct {
	// File is the FP register file configuration.
	File bankfile.Config
	// Method selects non / bcr / bpc.
	Method Method
	// Subgroups enables the DSA path: SDG-based subgroup splitting plus
	// subgroup displacement hints in the allocator. Requires
	// File.HasSubgroups().
	Subgroups bool
	// THRES overrides Algorithm 1's register-pressure threshold
	// (assign.DefaultTHRES if zero).
	THRES float64
	// SDGMaxGroup overrides the subgroup-splitting group size bound.
	SDGMaxGroup int
	// DisablePressure ablates the bank-pressure prioritization.
	DisablePressure bool
	// DisableFreeHints ablates free-register balancing.
	DisableFreeHints bool
	// DisableSched skips pre-allocation scheduling.
	DisableSched bool
	// DisableCoalesce skips register coalescing.
	DisableCoalesce bool
	// LinearScan swaps the greedy allocator for the linear-scan allocator
	// (the paper's future-work integration of PresCount with other RA
	// methods). Incompatible with Subgroups, MethodBCR and the allocator
	// methods (binpack, coloring), which select their own allocator.
	LinearScan bool
	// ColoringTimeout is the coloring allocator's deterministic work budget
	// (MethodColoring only; 0 selects the default). Exhausting it bails to
	// linear scan; only the request context's deadline aborts the compile.
	ColoringTimeout time.Duration
	// BinpackMaxRescues bounds the second chances one virtual register may
	// receive from the binpacking allocator (MethodBinpack only; 0 selects
	// the default).
	BinpackMaxRescues int
	// Check selects how much checking the compile performs (see Check).
	Check Check
	// VerifyMemSize is the memory size of CheckExec's simulations.
	VerifyMemSize int
	// Workers bounds CompileModule's concurrency: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial path. Compile itself is
	// always single-threaded; functions are independent pipeline units.
	Workers int
	// Cache, when non-nil, memoizes compilation (internal/compilecache):
	// identical (function fingerprint, options) compiles return a shared
	// immutable Result, and the method-independent pipeline prefix
	// (coalescing → SDG splitting → scheduling) is reused across compiles
	// that differ only in suffix options (File, Method, THRES, ablations).
	// Cached Results are shared across callers and must not be mutated.
	// Cache, Workers, Check and VerifyMemSize never enter the cache key.
	Cache *compilecache.Cache
}

// Check is the checking level of a compile. Levels are ordered and
// cumulative: each runs every lower level's checks too. Checks only
// observe, so the compiled output is the same at every level; any level
// above CheckNone bypasses Options.Cache (the checks must actually run).
type Check uint8

const (
	// CheckNone runs no checks and is strictly zero-cost: verify.ChecksRun
	// and tv.ChecksRun do not move.
	CheckNone Check = iota
	// CheckPhases runs the phase-boundary verifier (internal/verify) around
	// every Figure-4 phase (the before/after hooks of the pipeline table);
	// failures are *ir.Diag errors naming the violated V-rule.
	CheckPhases
	// CheckValidate adds the translation validator (internal/tv), a symbolic
	// value-equivalence check of the output against the input; failures are
	// *ir.Diag errors naming the violated T-rule.
	CheckValidate
	// CheckExec adds one concrete execution: the function is simulated
	// before and after compilation and divergent memory images fail the
	// compile (slow; meant for tests).
	CheckExec
)

var checkNames = [...]string{"none", "phases", "validate", "exec"}

// String returns the level's name, as Set accepts it.
func (c Check) String() string {
	if int(c) < len(checkNames) {
		return checkNames[c]
	}
	return fmt.Sprintf("Check(%d)", uint8(c))
}

// Set parses a level name ("none", "phases", "validate", "exec"), making
// *Check a flag.Value.
func (c *Check) Set(s string) error {
	for i, n := range checkNames {
		if n == s {
			*c = Check(i)
			return nil
		}
	}
	return fmt.Errorf("unknown check level %q (want none, phases, validate or exec)", s)
}

// Result is the outcome of compiling one function.
type Result struct {
	// Func is the allocated function (a transformed clone of the input).
	Func *ir.Func
	// Report is the static conflict analysis of the allocated code.
	Report *conflict.Report
	// Alloc is the register allocator's statistics.
	Alloc *regalloc.Result
	// Coalesce, SDG and Sched report the pre-passes.
	Coalesce coalesce.Stats
	// SDG reports subgroup splitting (zero value when not run).
	SDG sdg.Stats
	// Sched reports pre-allocation scheduling.
	Sched sched.Stats
	// BankAssignForced counts RCG nodes that Algorithm 1 had to force into
	// a conflicting bank.
	BankAssignForced int
	// Renumber reports the post-allocation renumbering pass (brc only).
	Renumber renumber.Stats
}

// Compile runs the full pipeline over a copy of f and returns the allocated
// function plus statistics. The input function is not modified.
//
// With opts.Cache set, the compile is memoized: a repeat of an identical
// (function, options) pair returns the shared cached Result, and compiles
// that share the function and prefix options but differ in suffix options
// clone the cached post-scheduling snapshot instead of re-running the
// prefix. Both paths produce byte-identical results to an uncached run
// (pinned by TestCompileCachedMatchesUncached and the sweep byte-identity
// test in internal/experiments).
func Compile(f *ir.Func, opts Options) (*Result, error) {
	return CompileContext(context.Background(), f, opts)
}

// CompileContext is Compile under a context: cancellation (or deadline
// expiry) is checked at every phase boundary of the pipeline, so a compile
// whose caller has gone away stops burning CPU within one phase. The
// returned error wraps ctx.Err(), so errors.Is(err,
// context.DeadlineExceeded) / context.Canceled discriminates cancellation
// from compile failures. Cancelled compiles are never retained by
// opts.Cache — a later lookup of the same key recomputes under its own
// context.
func CompileContext(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", f.Name, err)
	}
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("core: input: %w", err)
	}
	if err := checkInputBounds(f, opts); err != nil {
		return nil, err
	}
	if opts.Subgroups && !opts.File.Normalize().HasSubgroups() {
		return nil, fmt.Errorf("core: subgroup mode requires a subgrouped register file, got %v", opts.File)
	}
	if opts.LinearScan && opts.Subgroups {
		return nil, fmt.Errorf("core: linear scan does not implement subgroup displacement hints")
	}
	if opts.Method == MethodBinpack || opts.Method == MethodColoring {
		if opts.Subgroups {
			return nil, fmt.Errorf("core: method %v does not implement subgroup displacement hints", opts.Method)
		}
		if opts.LinearScan {
			return nil, fmt.Errorf("core: method %v selects its own allocator, incompatible with LinearScan", opts.Method)
		}
	}
	if opts.Cache != nil && opts.Check == CheckNone {
		return compileCached(ctx, f, opts)
	}
	return runPhases(ctx, f, &Result{Func: f}, true, opts, pipeline)
}

// checkInputBounds rejects inputs whose pre-assigned physical FP
// registers fall outside opts.File before any phase runs. ir.Func.Verify
// cannot check this — structural well-formedness is file-independent —
// and letting such a function through would either trip the verifier's
// V033 mid-pipeline (misattributing an input problem to the pipeline) or,
// unverified, silently emit code addressing registers the target does not
// have. Found by the fuzz harness's translation-validation oracle work.
func checkInputBounds(f *ir.Func, opts Options) error {
	limit := opts.File.Normalize().NumRegs
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, regs := range [2][]ir.Reg{in.Defs, in.Uses} {
				for _, r := range regs {
					if r.IsFPR() && r.FPRIndex() >= limit {
						return fmt.Errorf("core: input: %s/%s#%d: physical FP register %v outside the %d-register file",
							f.Name, b.Name, i, r, limit)
					}
				}
			}
		}
	}
	return nil
}

// phase is one pipeline-table entry. before and after are the verifier's
// brackets (CheckPhases and above); retainsCFG keeps the analysis cache's
// CFG across a phase that rewrites instructions but not control flow.
type phase struct {
	name       string
	enabled    func(*Options) bool // nil: always runs
	run        func(*compileState) error
	retainsCFG bool
	before     func(*compileState) error
	after      func(*compileState) error
}

// compileState is what the phases of one runPhases call share.
type compileState struct {
	ctx  context.Context
	in   *ir.Func // the caller's input: the end-to-end checks' reference
	work *ir.Func
	ac   *analysis.Cache
	opts Options
	res  *Result
	at   string // name of the running phase

	banks *assign.Result // bank assignment, consumed by regalloc
	// Verifier state: the pre-phase snapshot of the delta checks and the
	// pre-allocation entry-live-in set of the allocation checks.
	snap     *verify.Snapshot
	preEntry map[ir.Reg]bool
}

// Layer boundaries in pipeline: the compile cache memoizes the prefix
// pipeline[:allocStart] and, for bank-oblivious methods, the allocation
// pipeline[allocStart:postStart]; pipeline[postStart:] reads the full File
// and reruns per sweep point.
const allocStart, postStart = 3, 5

// pipeline is the paper's Figure-4 sequence followed by the end-to-end
// checks. runPhases executes any slice of it.
var pipeline = []phase{
	{
		name:    "coalesce",
		enabled: func(o *Options) bool { return !o.DisableCoalesce },
		run: func(st *compileState) error {
			st.res.Coalesce = coalesce.RunCached(st.work, st.ac)
			return nil
		},
		before: capture,
		after:  checkDelta,
	},
	{
		// DSA only; after coalescing so splitting copies are not re-coalesced.
		name:    "sdg-split",
		enabled: func(o *Options) bool { return o.Subgroups },
		run: func(st *compileState) error {
			st.res.SDG = sdg.Split(st.work, sdg.Options{MaxGroup: st.opts.SDGMaxGroup})
			return nil
		},
		retainsCFG: true, // splitting only inserts copies and renames ranges
		before:     capture,
		after:      checkDelta,
	},
	{
		name:    "sched",
		enabled: func(o *Options) bool { return !o.DisableSched },
		run: func(st *compileState) error {
			st.res.Sched = sched.Run(st.work)
			return nil
		},
		retainsCFG: true, // scheduling reorders within blocks only
		before:     capture,
		after: func(st *compileState) error {
			if err := checkDelta(st); err != nil {
				return err
			}
			return st.snap.CheckSched(st.work)
		},
	},
	{
		// bpc only. Reads the live ranges without modifying the IR, so the
		// liveness pulled here stays valid for the allocator.
		name:    "bank-assign",
		enabled: func(o *Options) bool { return o.Method == MethodBPC },
		run: func(st *compileState) error {
			st.banks = assign.PresCount(st.work, st.ac.RCG(), st.ac.Liveness(), st.opts.File.Normalize(), assign.Options{
				THRES:            st.opts.THRES,
				DisablePressure:  st.opts.DisablePressure,
				DisableFreeHints: st.opts.DisableFreeHints,
			})
			st.res.BankAssignForced = len(st.banks.Forced)
			return nil
		},
		after: func(st *compileState) error {
			return verify.CheckBankAssignment(st.work, st.ac.RCG(), st.banks, st.opts.File)
		},
	},
	{
		name: "regalloc",
		run: func(st *compileState) error {
			o := &st.opts
			ra := regalloc.Options{
				Cfg: o.File, Method: o.Method, Analyses: st.ac,
				ColoringTimeout: o.ColoringTimeout, BinpackMaxRescues: o.BinpackMaxRescues,
				Record: o.Check >= CheckPhases, // read by the allocation checks
			}
			if st.banks != nil {
				ra.BankOf, ra.FreeHints = st.banks.BankOf, st.banks.FreeHints
			}
			if o.Subgroups {
				ra.SubgroupGroups = sdg.Build(st.work).GroupOf()
			}
			// The brc baseline allocates bank-obliviously and fixes conflicts
			// afterwards by renumbering.
			if ra.Method == MethodBRC {
				ra.Method = MethodNon
			}
			var err error
			switch {
			case o.Method == MethodBinpack:
				st.res.Alloc, err = regalloc.RunBinpack(st.work, ra)
			case o.Method == MethodColoring:
				st.res.Alloc, err = regalloc.RunColoring(st.ctx, st.work, ra)
			case o.LinearScan:
				st.res.Alloc, err = regalloc.RunLinearScan(st.work, ra)
			default:
				st.res.Alloc, err = regalloc.Run(st.work, ra)
			}
			return err
		},
		// The allocator is the main consumer of the cached liveness: audit
		// the cache against a from-scratch recompute before handing it over,
		// and capture the entry-live-in set so a dropped reload is
		// distinguishable from an input the program reads undefined.
		before: func(st *compileState) error {
			if err := verify.CheckLiveness(st.work, st.ac); err != nil {
				return err
			}
			st.preEntry = verify.EntryLive(st.work)
			return nil
		},
		after: func(st *compileState) error {
			if err := verify.WellFormed(st.work); err != nil {
				return err
			}
			return verify.CheckAllocation(st.work, st.opts.File, st.res.Alloc, st.preEntry)
		},
	},
	{
		// brc only: global renumbering over the physical-register conflict
		// graph, reusing the CFG retained through the allocator's rewrite.
		name:    "renumber",
		enabled: func(o *Options) bool { return o.Method == MethodBRC },
		run: func(st *compileState) error {
			st.res.Renumber = renumber.Run(st.work, st.opts.File, st.ac.CFG())
			return nil
		},
		retainsCFG: true, // renumbering permutes registers, never blocks
		// The recorded assignments no longer describe the permuted code;
		// re-check structure and file bounds only.
		after: func(st *compileState) error {
			if err := verify.WellFormed(st.work); err != nil {
				return err
			}
			return verify.CheckPhysBounds(st.work, st.opts.File)
		},
	},
	{
		name: "conflict-analysis",
		run: func(st *compileState) error {
			st.res.Report = conflict.AnalyzeWith(st.work, st.opts.File, st.ac.CFG())
			return nil
		},
		after: func(st *compileState) error {
			return verify.CheckReport(st.work, st.opts.File, st.res.Report)
		},
	},
	{
		name:    "validate",
		enabled: func(o *Options) bool { return o.Check >= CheckValidate },
		run: func(st *compileState) error {
			if err := tv.Check(st.in, st.work, st.opts.File.Normalize().NumRegs); err != nil {
				return fmt.Errorf("translation validation: %w", err)
			}
			return nil
		},
	},
	{
		name:    "exec",
		enabled: func(o *Options) bool { return o.Check >= CheckExec },
		run:     checkExec,
	},
}

// capture and checkDelta bracket the prefix phases: checkDelta checks
// structural well-formedness, trip-count preservation and no new undefined
// reads against the snapshot capture took.
func capture(st *compileState) error {
	st.snap = verify.Capture(st.work)
	return nil
}

func checkDelta(st *compileState) error {
	if err := verify.WellFormed(st.work); err != nil {
		return err
	}
	return st.snap.CheckDelta(st.work, st.at)
}

// checkExec simulates the input and the compiled function and fails on
// divergent memory images.
func checkExec(st *compileState) error {
	memSize := st.opts.VerifyMemSize
	if memSize == 0 {
		memSize = 1 << 16
	}
	before, err := sim.Run(st.in, sim.Options{MemSize: memSize})
	if err != nil {
		return fmt.Errorf("simulating original: %w", err)
	}
	after, err := sim.Run(st.work, sim.Options{MemSize: memSize, File: st.opts.File})
	if err != nil {
		return fmt.Errorf("simulating allocated: %w", err)
	}
	if before.MemChecksum != after.MemChecksum {
		return fmt.Errorf("allocation changed semantics (checksum %x -> %x)", before.MemChecksum, after.MemChecksum)
	}
	return nil
}

// runPhases runs phases on from, a partial Result (the stats of the phases
// run so far, Func the function after them), and returns the extended copy;
// from may be a shared cache snapshot and is never modified. With clone set
// the phases transform a private clone of from.Func named in.Name;
// otherwise they must only read it. One analysis cache on a pooled arena
// serves every phase, computing CFG, liveness and RCG at most once per IR
// mutation generation; the arena is recycled on return.
func runPhases(ctx context.Context, in *ir.Func, from *Result, clone bool, opts Options, phases []phase) (*Result, error) {
	res := *from
	work := from.Func
	if clone {
		work = work.Clone()
		work.Name = in.Name
	}
	ar := scratch.Get()
	defer scratch.Put(ar)
	st := &compileState{ctx: ctx, in: in, work: work, ac: analysis.NewWithArena(work, ar), opts: opts, res: &res}
	checking := opts.Check >= CheckPhases
	for i := range phases {
		p := &phases[i]
		if p.enabled != nil && !p.enabled(&st.opts) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s: cancelled before %s: %w", work.Name, p.name, err)
		}
		st.at = p.name
		if checking && p.before != nil {
			if err := p.before(st); err != nil {
				return nil, fmt.Errorf("core: %s: verify before %s: %w", work.Name, p.name, err)
			}
		}
		if err := p.run(st); err != nil {
			return nil, fmt.Errorf("core: %s: %w", work.Name, err)
		}
		if p.retainsCFG {
			st.ac.RetainCFG()
		}
		if checking && p.after != nil {
			if err := p.after(st); err != nil {
				return nil, fmt.Errorf("core: %s: verify after %s: %w", work.Name, p.name, err)
			}
		}
	}
	res.Func = work
	return &res, nil
}

// funcBytes estimates the memory retained by a cached function, for the
// cache's BytesRetained accounting: per-instruction struct plus operand
// slices, block headers and the vreg table. An estimate is fine — the
// statistic exists to show cache growth, not to bound it.
func funcBytes(f *ir.Func) int64 {
	n := int64(0)
	for _, b := range f.Blocks {
		n += 96 // Block header, name, slice headers
		for _, in := range b.Instrs {
			n += 64 + 8*int64(len(in.Defs)+len(in.Uses))
		}
	}
	return n + 8*int64(len(f.VRegs))
}

// cacheEntry adapts a compile outcome to a cache entry sized by funcBytes.
func cacheEntry(res *Result, err error) (any, int64, error) {
	if err != nil {
		return nil, 0, err
	}
	return res, funcBytes(res.Func), nil
}

// compileCached is the memoized compile path. Layer 1 dedups identical
// (fingerprint, full options) compiles; layer 2 memoizes the pipeline
// prefix under (fingerprint, prefix options). The prefix and alloc layers
// store partial Results (see runPhases) that consumers clone before
// mutating, so the snapshots stay pristine.
func compileCached(ctx context.Context, f *ir.Func, opts Options) (*Result, error) {
	fp := f.Fingerprint()
	fullKey := compilecache.Key{Fingerprint: fp, Digest: opts.FullDigest()}
	v, _, err := opts.Cache.Full(fullKey, func() (any, int64, error) {
		return cacheEntry(compileViaPrefix(ctx, f, fp, opts))
	})
	if err != nil {
		return nil, err
	}
	// Rename unconditionally, not only on memory hits: a disk-backed cache
	// returns hit=false for entries served from the second level, and those
	// were encoded under whichever name first produced the fingerprint.
	// renamedResult is a no-op when the names already agree.
	return renamedResult(v.(*Result), f.Name), nil
}

// renamedResult rematerializes a shared immutable Result under the caller's
// symbol name. A shared result may have been produced for a structurally
// identical function under another name (fingerprints elide names);
// everything but the function itself (reports, stats) is name-independent
// and stays shared. Same-name results are returned as-is.
func renamedResult(res *Result, name string) *Result {
	if res.Func.Name == name {
		return res
	}
	cp := *res
	fn := res.Func.Clone()
	fn.Name = name
	cp.Func = fn
	return &cp
}

// compileViaPrefix compiles f reusing (or populating) the prefix layer of
// the cache.
func compileViaPrefix(ctx context.Context, f *ir.Func, fp ir.Fingerprint, opts Options) (*Result, error) {
	prefixKey := compilecache.Key{Fingerprint: fp, Digest: opts.PrefixDigest()}
	v, _, err := opts.Cache.Prefix(prefixKey, func() (any, int64, error) {
		return cacheEntry(runPhases(ctx, f, &Result{Func: f}, true, opts, pipeline[:allocStart]))
	})
	if err != nil {
		return nil, err
	}
	psnap := v.(*Result)
	if allocCacheable(opts) {
		return compileViaAlloc(ctx, f, fp, opts, psnap)
	}
	return runPhases(ctx, f, psnap, true, opts, pipeline[allocStart:])
}

// allocCacheable reports whether opts selects a bank-oblivious allocation:
// methods non and brc never consult the bank count before the
// post-allocation phases (the regalloc phase maps brc to non), so their
// allocation can be keyed by AllocDigest and shared across bank sweeps.
// The subgroup path feeds displacement hints into the allocator, which do
// read bank geometry, so it stays on the plain path.
func allocCacheable(opts Options) bool {
	return (opts.Method == MethodNon || opts.Method == MethodBRC) && !opts.Subgroups
}

// compileViaAlloc compiles f reusing (or populating) the alloc layer with
// the bank-oblivious allocation, then runs the cheap bank-aware tail
// (renumbering for brc, conflict analysis) for this sweep point.
func compileViaAlloc(ctx context.Context, f *ir.Func, fp ir.Fingerprint, opts Options, psnap *Result) (*Result, error) {
	allocKey := compilecache.Key{Fingerprint: fp, Digest: opts.AllocDigest()}
	v, _, err := opts.Cache.Alloc(allocKey, func() (any, int64, error) {
		return cacheEntry(runPhases(ctx, f, psnap, true, opts, pipeline[allocStart:postStart]))
	})
	if err != nil {
		return nil, err
	}
	asnap := v.(*Result)
	// brc renumbers in place, and a shared snapshot may carry another
	// symbol name — either way this compile needs a private clone. non's
	// conflict analysis only reads the shared allocated function.
	clone := opts.Method == MethodBRC || asnap.Func.Name != f.Name
	return runPhases(ctx, f, asnap, clone, opts, pipeline[postStart:])
}

// ModuleResult aggregates per-function results of one module.
type ModuleResult struct {
	// PerFunc maps function name to its result.
	PerFunc map[string]*Result
	// Totals sums the conflict reports.
	Totals conflict.Report
}

// CompileModule compiles every function of m, fanning out over a worker
// pool bounded by opts.Workers (0 = runtime.GOMAXPROCS(0), 1 = serial).
// Compile clones its input and every pipeline stage is pure per function,
// so functions are independent units; results are aggregated in sorted
// name order after the pool drains, making the ModuleResult — including
// the float summation order inside Totals — identical to a serial run
// regardless of completion order. The first failing function wins and
// cancels the remaining work.
func CompileModule(m *ir.Module, opts Options) (*ModuleResult, error) {
	return CompileModuleContext(context.Background(), m, opts)
}

// CompileModuleContext is CompileModule under a context: cancelling ctx
// cancels queued functions immediately and in-flight compiles at their next
// phase boundary, and the first ctx.Err() wins as with any other compile
// failure.
func CompileModuleContext(ctx context.Context, m *ir.Module, opts Options) (*ModuleResult, error) {
	funcs := m.SortedFuncs()
	results := make([]*Result, len(funcs))
	err := pool.Run(ctx, len(funcs), opts.Workers, func(ctx context.Context, i int) error {
		r, err := CompileContext(ctx, funcs[i], opts)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ModuleResult{PerFunc: make(map[string]*Result, len(funcs))}
	for i, f := range funcs {
		out.PerFunc[f.Name] = results[i]
		addReport(&out.Totals, results[i].Report)
	}
	return out, nil
}

func addReport(dst *conflict.Report, src *conflict.Report) {
	dst.ConflictRelevant += src.ConflictRelevant
	dst.StaticConflicts += src.StaticConflicts
	dst.ConflictInstrs += src.ConflictInstrs
	dst.WeightedConflicts += src.WeightedConflicts
	dst.SubgroupViolations += src.SubgroupViolations
	dst.Copies += src.Copies
	dst.SpillStores += src.SpillStores
	dst.SpillReloads += src.SpillReloads
	dst.Instrs += src.Instrs
}

// Spills returns the spill instruction count of a report (stores plus
// reloads), the quantity the paper tables call "register spilling".
func Spills(r *conflict.Report) int { return r.SpillStores + r.SpillReloads }
