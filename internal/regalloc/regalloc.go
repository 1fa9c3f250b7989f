// Package regalloc implements the Enhanced Register Allocation phase of the
// paper's Figure 4: a greedy live-interval register allocator in the style
// of LLVM's RAGreedy, extended with
//
//   - bank assignment constraints produced by the PresCount assigner
//     (internal/assign), honored through candidate ordering ("hints");
//   - the bcr baseline's per-instruction greedy bank hinting (mimicking the
//     Intel Graphics Compiler heuristic the paper compares against);
//   - subgroup displacement bookkeeping for the DSA's bank-subgroup file
//     (Algorithm 2): groups of registers connected in the SDG receive one
//     subgroup displacement, chosen as the least-used subgroup, and the
//     allocator prefers physical registers conforming to (bank, displ).
//
// The allocator assigns FP and GPR classes independently and evicts
// lower-weight intervals when beneficial. When an interval cannot be
// placed, it is first considered for live-range splitting around a loop
// (a pinned child register serves the loop region); otherwise it spills,
// with region-based reload placement (consecutive uses share one reload)
// and rematerialization for constants. All spill and split code is planned
// during allocation over a stable slot-index space and materialized in a
// single rewrite at the end.
package regalloc

import (
	"fmt"
	"math"
	"sync"
	"time"

	"prescount/internal/analysis"
	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// Method selects the bank-conflict mitigation strategy of the allocator.
type Method int

const (
	// MethodNon is the default allocation with no bank awareness.
	MethodNon Method = iota
	// MethodBCR applies greedy per-instruction bank hinting at allocation
	// time (the Intel-GC-style baseline).
	MethodBCR
	// MethodBPC consumes the PresCount pre-allocation bank assignment.
	MethodBPC
	// MethodBRC allocates like MethodNon and relies on a post-allocation
	// register renumbering pass (internal/renumber) applied by the
	// pipeline — the Patney/LTRF-style baseline of the paper's figures.
	MethodBRC
	// MethodBinpack replaces the greedy allocator with Traub-style
	// second-chance binpacking (RunBinpack): live ranges are packed into
	// banked registers in start order, later intervals may evict earlier
	// ones, and evicted remainders get a second chance in another register.
	MethodBinpack
	// MethodColoring replaces the greedy allocator with interference-graph
	// coloring (RunColoring): Chaitin-Briggs simplify/select with a
	// bank-aware color cost from the RCG, guarded by a deterministic work
	// budget that bails to linear scan so it can never hang a request.
	MethodColoring
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodBCR:
		return "bcr"
	case MethodBPC:
		return "bpc"
	case MethodBRC:
		return "brc"
	case MethodBinpack:
		return "binpack"
	case MethodColoring:
		return "coloring"
	default:
		return "non"
	}
}

// Options configures one allocation run.
type Options struct {
	// Cfg is the FP register file configuration.
	Cfg bankfile.Config
	// Method selects non/bcr/bpc behaviour.
	Method Method
	// BankOf is the PresCount bank assignment for RCG registers (bpc only).
	BankOf map[ir.Reg]int
	// FreeHints is the PresCount balancing hint for RCG-absent registers
	// (bpc only).
	FreeHints map[ir.Reg]int
	// SubgroupGroups maps FP vregs to their SDG group id; enables
	// Algorithm 2 subgroup displacement bookkeeping when Cfg.HasSubgroups.
	SubgroupGroups map[ir.Reg]int
	// Analyses, when non-nil, supplies the cached CFG and liveness of the
	// function (internal/analysis) so the allocator reuses the analyses
	// already computed by earlier pipeline phases instead of recomputing.
	// After its rewrite the allocator marks the function mutated and
	// re-stamps the CFG as retained (allocation never edits control flow).
	Analyses *analysis.Cache
	// Record, when set, fills Result.Assignments, Result.SpillSlotOf and
	// Result.EntryLiveIn so the phase-boundary verifier (internal/verify)
	// can audit the allocation against independently recomputed liveness.
	// Off by default: recording allocates on the hot path.
	Record bool
	// BinpackMaxRescues bounds how many second chances one virtual register
	// may receive from the binpacking allocator (MethodBinpack only; 0
	// selects the default).
	BinpackMaxRescues int
	// ColoringTimeout is the coloring allocator's work budget expressed as
	// a duration (MethodColoring only; 0 selects the default). The budget
	// is converted to a deterministic unit count, so whether a given
	// function bails to linear scan is identical run to run — only the
	// context deadline, which aborts the compile outright, reads the clock.
	ColoringTimeout time.Duration
}

// Assignment records one virtual register's final physical placement,
// captured under Options.Record. Reg may be an allocator-created spill
// pseudo or split child; Interval is the live interval the allocator
// actually used for it (synthesized for pseudos).
type Assignment struct {
	Reg      ir.Reg
	Class    ir.Class
	Phys     int // index within the class's register file
	Interval *liveness.Interval
}

// Result reports the allocation outcome. After Run the function is fully
// rewritten onto physical registers.
type Result struct {
	// LoopSplits counts live ranges split around a loop instead of
	// spilled.
	LoopSplits int
	// SpilledVRegs is the number of virtual registers sent to stack slots
	// (both classes).
	SpilledVRegs int
	// SpillStores and SpillReloads count inserted spill/reload
	// instructions.
	SpillStores, SpillReloads int
	// Evictions counts interval evictions.
	Evictions int
	// Remats counts spilled registers handled by rematerializing their
	// constant instead of a stack slot.
	Remats int
	// BankBreaks counts FP intervals that could not be placed in their
	// PresCount-assigned bank.
	BankBreaks int
	// AssignedPhys maps original FP vregs to the physical FP register they
	// landed in (the bank is Cfg.Bank of that index). Storing the physical
	// index rather than the bank keeps the Result bank-oblivious for
	// methods whose allocation never reads the bank count (non, and brc's
	// allocation phase), which is what lets the compile cache share one
	// allocation across every bank point of a sweep.
	AssignedPhys map[ir.Reg]int
	// GroupDispl maps SDG group id to its chosen subgroup displacement.
	GroupDispl map[int]int
	// Rescues counts evicted interval remainders the binpacking allocator
	// re-placed into another register — the "second chance" of the
	// Traub/Holloway/Smith scheme (MethodBinpack only).
	Rescues int
	// ColoringBailed reports that the coloring allocator exhausted its
	// work budget and fell back to linear scan (MethodColoring only).
	ColoringBailed bool

	// Assignments lists every placed virtual register with the interval
	// the allocator used. Filled only under Options.Record.
	Assignments []Assignment
	// SpillSlotOf maps each stack-spilled register to its slot
	// (rematerialized registers are absent). Filled only under
	// Options.Record.
	SpillSlotOf map[ir.Reg]int
	// EntryLiveIn lists virtual registers live into the entry block before
	// rewriting: values the function consumes without defining (legal in
	// this IR; they read as zero/garbage). The verifier uses it to tell a
	// dropped reload from a legitimately undefined input. Filled only
	// under Options.Record.
	EntryLiveIn []ir.Reg
}

// numGPRFile is the GPR file size used for the scalar class.
const numGPRFile = ir.NumGPR

// allocPool recycles allocator state — maps, union slabs, scratch buffers —
// across Run invocations. release() clears every per-compile reference
// before returning the allocator, so the pool never retains IR from a
// previous function; steady-state module compiles and sweeps then run the
// allocator nearly allocation-free apart from the Result itself.
var allocPool = sync.Pool{New: func() any { return new(allocator) }}

// Run allocates f onto physical registers in place and returns statistics.
func Run(f *ir.Func, opts Options) (*Result, error) {
	opts.Cfg = opts.Cfg.Normalize()
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	a := allocPool.Get().(*allocator)
	a.init(f, opts)
	err := a.run()
	res := a.res
	a.release()
	if err != nil {
		return nil, err
	}
	return res, nil
}

type allocator struct {
	f    *ir.Func
	opts Options
	res  *Result

	cf *cfg.Info
	lv *liveness.Info

	// unions[class][phys] is the interval union occupying one physical
	// register of the class. Value slabs rather than pointer slices: the
	// zero Union is ready to use, so sizing the slab is one allocation
	// instead of one object plus three maps per physical register.
	fpUnions  []liveness.Union
	gprUnions []liveness.Union

	// assignment[v] is the physical index within its class file of the
	// vreg with VirtIndex v, -1 while unassigned. It and pseudoParent are
	// indexed by vreg and grow with every register newVReg creates.
	assignment []int32
	// intervals can be overridden for spill pseudo-registers whose ranges
	// are synthesized rather than computed.
	override map[ir.Reg]*liveness.Interval
	// weight overrides (spill children are infinite).
	weightOverride map[ir.Reg]float64
	// spillSlot maps spilled vreg -> stack slot.
	spillSlot map[ir.Reg]int
	// sitePseudo maps (instr, spilled vreg, isDef) -> pseudo vreg.
	sitePseudo map[siteKey]ir.Reg
	// spilled marks vregs already spilled (cannot spill twice).
	spilled ir.RegSet
	// remat maps rematerializable spilled vregs to their constant-producing
	// definition.
	remat map[ir.Reg]*ir.Instr
	// pseudoParent[v] is the register a spill pseudo-register or split
	// child stands in for (NoReg for every other vreg); hint lookups
	// resolve through it (the paper's Algorithm 2 handles such
	// allocator-created registers explicitly).
	pseudoParent []ir.Reg
	// spanMembers maps a span pseudo to the instructions it serves;
	// firstReload marks the site that emits the span's single reload.
	spanMembers map[ir.Reg][]*ir.Instr
	firstReload map[siteKey]bool
	// splits records committed loop splits per parent register; splitDone
	// limits each register to a single split.
	splits    map[ir.Reg][]splitPlan
	splitDone ir.RegSet

	// subgroup bookkeeping (Algorithm 2).
	usage     []int       // per-subgroup accumulated usage
	groupSize map[int]int // SDG group id -> member count

	// conflictSites caches each register's hottest conflict-relevant
	// instruction for the bcr heuristic, indexed by vreg (built lazily,
	// with siteCost the frequency of the chosen site).
	conflictSites []*ir.Instr
	siteCost      []float64
	sitesBuilt    bool

	// victimScratch is the reusable ConflictsWithAppend buffer of the
	// eviction scan: assignOne probes every candidate register, so the
	// owner list is requested O(candidates) times per interval.
	victimScratch []ir.Reg
	// vsScratch collects the current candidate's victims and swaps with
	// bestVictims when a new best is found, keeping the eviction scan
	// allocation-free.
	vsScratch, bestVictims []ir.Reg

	// fpOrder is allocOrder of the FP file, looked up once per run.
	fpOrder []int
	// bankMask is the candidate iterator's avoided-bank bitmask scratch.
	bankMask []uint64

	// callSlots and clobber are the fixed-clobber scratch: every
	// caller-saved register of both classes shares the one clobber
	// interval (their contents are identical by construction).
	callSlots []int
	clobber   liveness.Interval

	// fixedFP and fixedGPR hold per-physical-register clobber intervals
	// from call sites: caller-saved registers are unavailable to any
	// interval that spans a call, forcing long-lived values into the
	// callee-saved subset or onto the stack.
	fixedFP, fixedGPR []*liveness.Interval

	queue *workQueue
}

type siteKey struct {
	in    *ir.Instr
	vreg  ir.Reg
	isDef bool
}

// init prepares a pooled allocator for one run: a fresh Result (it escapes
// to the caller), lazily created maps (cleared again on release), and
// right-sized union slabs.
func (a *allocator) init(f *ir.Func, opts Options) {
	a.f = f
	a.opts = opts
	a.res = &Result{
		// Presized: nearly every FP vreg lands here, and the entries go in
		// one at a time on the hot place() path.
		AssignedPhys: make(map[ir.Reg]int, len(f.VRegs)),
		GroupDispl:   map[int]int{},
	}
	a.assignment = resizeFilled(a.assignment, len(f.VRegs), -1)
	a.pseudoParent = resizeFilled(a.pseudoParent, len(f.VRegs), ir.NoReg)
	if a.spillSlot == nil {
		a.spillSlot = map[ir.Reg]int{}
		a.override = map[ir.Reg]*liveness.Interval{}
		a.weightOverride = map[ir.Reg]float64{}
		a.sitePseudo = map[siteKey]ir.Reg{}
		a.remat = map[ir.Reg]*ir.Instr{}
		a.groupSize = map[int]int{}
		a.spanMembers = map[ir.Reg][]*ir.Instr{}
		a.firstReload = map[siteKey]bool{}
		a.splits = map[ir.Reg][]splitPlan{}
	}
	a.usage = resizeZeroed(a.usage, opts.Cfg.NumSubgroups)
	a.fpOrder = allocOrder(opts.Cfg.NumRegs)
	if opts.Method == MethodBPC && opts.Cfg.HasSubgroups() {
		for _, g := range opts.SubgroupGroups {
			a.groupSize[g]++
		}
	}
	if cap(a.fpUnions) < opts.Cfg.NumRegs {
		a.fpUnions = make([]liveness.Union, opts.Cfg.NumRegs)
	} else {
		a.fpUnions = a.fpUnions[:opts.Cfg.NumRegs]
	}
	if cap(a.gprUnions) < numGPRFile {
		a.gprUnions = make([]liveness.Union, numGPRFile)
	} else {
		a.gprUnions = a.gprUnions[:numGPRFile]
	}
}

// release clears every per-compile reference — the pool must retain no IR or
// intervals from the finished function — and returns the allocator.
func (a *allocator) release() {
	clear(a.spillSlot)
	clear(a.override)
	clear(a.weightOverride)
	clear(a.sitePseudo)
	clear(a.remat)
	clear(a.groupSize)
	clear(a.spanMembers)
	clear(a.firstReload)
	clear(a.splits)
	a.spilled.Clear()
	a.splitDone.Clear()
	clear(a.conflictSites)
	a.sitesBuilt = false
	for i := range a.fpUnions {
		a.fpUnions[i].Reset()
	}
	for i := range a.gprUnions {
		a.gprUnions[i].Reset()
	}
	a.clobber = liveness.Interval{Segments: a.clobber.Segments[:0]}
	a.victimScratch = a.victimScratch[:0]
	if a.queue != nil {
		a.queue.release()
		a.queue = nil
	}
	a.f, a.res, a.cf, a.lv = nil, nil, nil, nil
	a.opts = Options{}
	allocPool.Put(a)
}

// resizeZeroed returns s with length n and every element zero, reusing the
// backing array when it is large enough.
func resizeZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeFilled returns s with length n and every element v, reusing the
// backing array when it is large enough.
func resizeFilled[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// newVReg creates an allocator-owned virtual register (spill pseudo or
// split child), growing the per-vreg tables with it.
func (a *allocator) newVReg(c ir.Class) ir.Reg {
	r := a.f.NewVReg(c)
	a.assignment = append(a.assignment, -1)
	a.pseudoParent = append(a.pseudoParent, ir.NoReg)
	return r
}

// origin resolves a spill pseudo-register or split child to the register
// it stands in for; any other register is its own origin.
func (a *allocator) origin(r ir.Reg) ir.Reg {
	if p := a.pseudoParent[r.VirtIndex()]; p != ir.NoReg {
		return p
	}
	return r
}

// physIndex returns r's physical index within its class file. An
// unassigned register — one never live, so it was never queued — encodes
// as index 0.
func (a *allocator) physIndex(r ir.Reg) int {
	return max(int(a.assignment[r.VirtIndex()]), 0)
}

func (a *allocator) run() error {
	a.start()
	guard := 0
	maxSteps := 50 * (len(a.f.VRegs) + 10) * (a.opts.Cfg.NumRegs + numGPRFile)
	for a.queue.Len() > 0 {
		guard++
		if guard > maxSteps {
			return fmt.Errorf("regalloc: %s: allocation did not converge", a.f.Name)
		}
		r := a.queue.pop()
		if a.assignment[r.VirtIndex()] >= 0 {
			continue
		}
		if err := a.assignOne(r); err != nil {
			return err
		}
	}
	a.queue.release()
	a.queue = nil
	if a.opts.Record {
		record(a.res, a.f, a.lv, func(r ir.Reg) (int, bool) { p := a.assignment[r.VirtIndex()]; return int(p), p >= 0 },
			a.intervalOf, a.spillSlot)
	}
	a.materialize()
	a.f.MarkMutated()
	if ac := a.opts.Analyses; ac != nil {
		ac.RetainCFG() // spill code and operand rewrites keep control flow
	}
	return a.f.Verify()
}

// start fetches the analyses, builds the call clobbers and queues every
// live virtual register.
func (a *allocator) start() {
	if ac := a.opts.Analyses; ac != nil {
		a.cf = ac.CFG()
		a.lv = ac.Liveness()
	} else {
		a.cf = cfg.Compute(a.f)
		a.lv = liveness.Compute(a.f, a.cf)
	}
	a.buildFixedClobbers()

	a.queue = newWorkQueue(len(a.f.VRegs))
	for idx := range a.f.VRegs {
		r := ir.VReg(idx)
		iv := a.intervalOf(r)
		if iv == nil || iv.Empty() {
			continue
		}
		a.queue.push(r, a.priorityOf(r))
	}
}

// buildFixedClobbers records, for every caller-saved physical register, a
// clobber interval with one slot per call site. The contents are identical
// for every such register of both classes, and nothing ever mutates or
// inserts them into a union, so they all share the allocator's single
// reusable clobber interval.
func (a *allocator) buildFixedClobbers() {
	a.fixedFP = resizeZeroed(a.fixedFP, a.opts.Cfg.NumRegs)
	a.fixedGPR = resizeZeroed(a.fixedGPR, numGPRFile)
	a.callSlots = a.callSlots[:0]
	for _, b := range a.f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpCall {
				a.callSlots = append(a.callSlots, a.lv.ReadSlot(b, i))
			}
		}
	}
	if len(a.callSlots) == 0 {
		return
	}
	iv := &a.clobber
	for _, s := range a.callSlots {
		iv.Add(s, s+1)
	}
	for p := 0; p < a.opts.Cfg.NumRegs; p++ {
		if ir.CallerSavedFPR(p, a.opts.Cfg.NumRegs) {
			a.fixedFP[p] = iv
		}
	}
	for p := 0; p < numGPRFile; p++ {
		if ir.CallerSavedGPR(p) {
			a.fixedGPR[p] = iv
		}
	}
}

// fixed returns the class's per-register clobber intervals (nil entries
// for callee-saved registers, or everywhere when there are no calls).
func (a *allocator) fixed(c ir.Class) []*liveness.Interval {
	if c == ir.ClassFP {
		return a.fixedFP
	}
	return a.fixedGPR
}

// spansCall reports whether the interval overlaps any call-site clobber.
// Every caller-saved register of either class carries the one shared
// clobber interval, and both classes have caller-saved registers.
func (a *allocator) spansCall(iv *liveness.Interval) bool {
	return len(a.callSlots) > 0 && a.clobber.Overlaps(iv)
}

func (a *allocator) classOf(r ir.Reg) ir.Class { return a.f.VRegs[r.VirtIndex()].Class }

func (a *allocator) unions(c ir.Class) []liveness.Union {
	if c == ir.ClassFP {
		return a.fpUnions
	}
	return a.gprUnions
}

func (a *allocator) intervalOf(r ir.Reg) *liveness.Interval {
	if iv, ok := a.override[r]; ok {
		return iv
	}
	if r.VirtIndex() < len(a.lv.Intervals) {
		return a.lv.Intervals[r.VirtIndex()]
	}
	return nil
}

func (a *allocator) weightOf(r ir.Reg) float64 {
	if w, ok := a.weightOverride[r]; ok {
		return w
	}
	iv := a.intervalOf(r)
	if iv == nil {
		return 0
	}
	return iv.Weight
}

// priorityOf is the allocation-queue key: long intervals first (LLVM
// RAGreedy's global-before-local ordering), with spill pseudo-registers at
// the very front. Priority deliberately differs from the eviction weight —
// that difference is what lets a hot, short interval arriving late evict a
// long, cold one allocated early.
func (a *allocator) priorityOf(r ir.Reg) float64 {
	if w, ok := a.weightOverride[r]; ok {
		return w // spill pseudos: +Inf, handled immediately
	}
	iv := a.intervalOf(r)
	if iv == nil {
		return 0
	}
	return float64(iv.Size())
}

// assignOne places one virtual register: free candidate, then eviction,
// then spilling.
func (a *allocator) assignOne(r ir.Reg) error {
	c := a.classOf(r)
	iv := a.intervalOf(r)
	unions := a.unions(c)
	fixed := a.fixed(c)
	cands := a.candidates(r, c)
	// CSR-aware ordering: an interval crossing a call can only live in
	// callee-saved registers, so try those first (stable within each
	// group) instead of burning through doomed caller-saved candidates.
	if a.spansCall(iv) {
		cands.calleeFirst(fixed)
	}

	// Stage 1: first free candidate (callee-saved availability included:
	// a caller-saved register is unusable for intervals spanning a call).
	for p, ok := cands.next(); ok; p, ok = cands.next() {
		if fx := fixed[p]; fx != nil && fx.Overlaps(iv) {
			continue
		}
		if !unions[p].HasConflict(iv) {
			a.place(r, c, p)
			return nil
		}
	}

	// Stage 2: eviction. Choose the candidate whose interfering intervals
	// all weigh strictly less than r, minimizing the evicted weight sum.
	w := a.weightOf(r)
	bestP := -1
	bestCost := math.Inf(1)
	a.bestVictims = a.bestVictims[:0]
	cands.reset()
	for p, ok := cands.next(); ok; p, ok = cands.next() {
		if fx := fixed[p]; fx != nil && fx.Overlaps(iv) {
			continue // call clobbers are not evictable
		}
		a.victimScratch = unions[p].ConflictsWithAppend(a.victimScratch, iv)
		ok := true
		cost := 0.0
		vs := a.vsScratch[:0]
		for _, vr := range a.victimScratch {
			vw := a.weightOf(vr)
			if vw >= w {
				ok = false
				break
			}
			cost += vw
			vs = append(vs, vr)
		}
		a.vsScratch = vs
		if ok && cost < bestCost {
			bestP, bestCost = p, cost
			a.vsScratch, a.bestVictims = a.bestVictims, a.vsScratch
		}
	}
	if bestP >= 0 {
		for _, v := range a.bestVictims {
			a.evict(v, c, bestP)
		}
		a.place(r, c, bestP)
		return nil
	}

	// Stage 3: spill. A span pseudo that cannot be placed is demoted to
	// per-use pseudos; a per-use pseudo that cannot be placed is a bug
	// (its one-slot interval conflicts with at most an instruction's worth
	// of other pseudos).
	if a.weightOf(r) == math.Inf(1) {
		if a.demoteSpan(r) {
			return nil
		}
		return fmt.Errorf("regalloc: %s: unassignable spill pseudo-register %v", a.f.Name, r)
	}
	// Stage 3a: live-range splitting around a loop, the cheaper remedy the
	// paper's Enhanced RA applies before committing to memory traffic.
	if a.trySplitAroundLoop(r, c) {
		return nil
	}
	a.spill(r, c)
	return nil
}

func (a *allocator) place(r ir.Reg, c ir.Class, p int) {
	a.assignment[r.VirtIndex()] = int32(p)
	a.unions(c)[p].Insert(r, a.intervalOf(r))
	if c == ir.ClassFP {
		a.res.AssignedPhys[r] = p
		if a.opts.Method == MethodBPC {
			if want, ok := a.opts.BankOf[r]; ok && want != a.opts.Cfg.Bank(p) {
				a.res.BankBreaks++
			}
		}
	}
}

func (a *allocator) evict(r ir.Reg, c ir.Class, p int) {
	a.unions(c)[p].Remove(r)
	a.assignment[r.VirtIndex()] = -1
	delete(a.res.AssignedPhys, r)
	a.res.Evictions++
	a.queue.push(r, a.priorityOf(r))
}

// workQueue is a max-heap over (weight, then smaller register first). It is
// hand-rolled rather than built on container/heap: the stdlib interface
// boxes every queueItem into an interface{} on Push, which costs one heap
// allocation per enqueue on the allocator's hottest control path. The sift
// procedures mirror container/heap's exactly, so the pop order — already
// fully determined by the strict (weight desc, register asc) total order —
// is unchanged.
type workQueue struct{ items []queueItem }

type queueItem struct {
	r ir.Reg
	w float64
}

// queuePool recycles the backing slice across Run invocations: the queue
// drains completely every allocation, so steady-state module compiles reuse
// one grown slice per worker instead of reallocating per function.
var queuePool = sync.Pool{New: func() any { return new(workQueue) }}

// newWorkQueue returns a pooled queue with capacity for at least n items
// (pass len(f.VRegs): every live vreg is pushed once up front, and eviction
// re-pushes never outnumber the vregs in flight).
func newWorkQueue(n int) *workQueue {
	q := queuePool.Get().(*workQueue)
	if cap(q.items) < n {
		q.items = make([]queueItem, 0, n)
	} else {
		q.items = q.items[:0]
	}
	return q
}

// release returns the queue (and its grown slice) to the pool.
func (q *workQueue) release() {
	q.items = q.items[:0]
	queuePool.Put(q)
}

func (q *workQueue) Len() int { return len(q.items) }
func (q *workQueue) less(i, j int) bool {
	if q.items[i].w != q.items[j].w {
		return q.items[i].w > q.items[j].w
	}
	return q.items[i].r < q.items[j].r
}

func (q *workQueue) push(r ir.Reg, w float64) {
	q.items = append(q.items, queueItem{r, w})
	q.up(len(q.items) - 1)
}

func (q *workQueue) pop() ir.Reg {
	n := len(q.items) - 1
	q.items[0], q.items[n] = q.items[n], q.items[0]
	q.down(0, n)
	it := q.items[n]
	q.items = q.items[:n]
	return it.r
}

func (q *workQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		j = i
	}
}

func (q *workQueue) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}

// record captures the final pre-rewrite allocation state into res, walking
// the vreg table in index order so the recorded lists are deterministic.
// physOf reports a register's placement; intervalOf the interval the
// allocator used for it (overrides included).
func record(res *Result, f *ir.Func, lv *liveness.Info,
	physOf func(ir.Reg) (int, bool), intervalOf func(ir.Reg) *liveness.Interval,
	spillSlot map[ir.Reg]int) {
	entry := f.Entry()
	res.SpillSlotOf = make(map[ir.Reg]int, len(spillSlot))
	for idx := range f.VRegs {
		r := ir.VReg(idx)
		if p, ok := physOf(r); ok {
			res.Assignments = append(res.Assignments, Assignment{
				Reg: r, Class: f.VRegs[idx].Class, Phys: p, Interval: intervalOf(r),
			})
		}
		if s, ok := spillSlot[r]; ok {
			res.SpillSlotOf[r] = s
		}
		if lv.LiveIn[entry.ID].Has(r) {
			res.EntryLiveIn = append(res.EntryLiveIn, r)
		}
	}
}

// sortedRegs returns 0..n-1, the ascending candidate order.
func sortedRegs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
