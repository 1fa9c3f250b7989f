package regalloc

import (
	"math/rand"
	"sync"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// allocOrderCache memoizes the FP allocation orders per file size.
var allocOrderCache sync.Map // int -> []int

// gprOrder memoizes the ascending GPR candidate order: candidates() asks
// for it once per assignOne, and it never changes. The slice is shared:
// callers must not modify it.
var (
	gprOrderOnce sync.Once
	gprOrderRegs []int
)

func gprOrder() []int {
	gprOrderOnce.Do(func() { gprOrderRegs = sortedRegs(numGPRFile) })
	return gprOrderRegs
}

// allocOrder returns the default allocation order of the FP file: a fixed,
// deterministic permutation of the register indexes.
//
// Real ABIs allocate registers grouped by role (argument, temporary,
// callee-saved), an order that has no correlation with the index-mod-N bank
// interleaving — which is exactly why the paper's default allocator (`non`)
// conflicts so often. A plain ascending order would accidentally alternate
// banks for adjacently-allocated values and make the baseline unrealistically
// conflict-free, so the model uses a seeded shuffle: deterministic across
// runs and functions, uncorrelated with bank parity.
func allocOrder(numRegs int) []int {
	if v, ok := allocOrderCache.Load(numRegs); ok {
		return v.([]int)
	}
	order := make([]int, numRegs)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(0x5ca1ab1e))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	allocOrderCache.Store(numRegs, order)
	return order
}

// candIter yields the physical-register candidates of one interval in
// preference order. The order encodes all hinting: earlier candidates are
// preferred both for free assignment and for eviction. The sequence is
// produced lazily, so a caller that takes the first free register pays
// only for the prefix it inspected. It is, in order:
//
//  1. the registers conforming to the interval's bank and (on subgroup
//     files) its group's subgroup displacement, ascending — the Hints of
//     Algorithm 2 (bpc only);
//  2. the rest of that bank, ascending (bpc only);
//  3. the base order — allocOrder for FP, ascending for GPR — without the
//     bank's registers, registers in the banks bcr avoids coming last.
//
// With calleeFirst set the whole sequence is walked twice, yielding the
// callee-saved registers on the first pass and the caller-saved ones on the
// second. The avoid mask is allocator scratch: only one iterator per
// allocator is live at a time.
type candIter struct {
	cfg   bankfile.Config
	order []int
	// conf and bankRegs are the memoized stage-1 and stage-2 lists; bank
	// is -1 when the interval has none, displ -1 without a displacement.
	conf, bankRegs []int
	bank, displ    int
	// avoid is a bitmask over bank numbers, nil when no bank is avoided.
	avoid []uint64

	// fixed is the class's clobber table when the callee-first
	// partition applies; pass is 0 without it, else the current pass.
	fixed []*liveness.Interval
	pass  int

	stage, k int
}

const (
	stageConform = iota
	stageBank
	stagePreferred
	stageAvoided
	stageDone
)

// Passes of the callee-first partition.
const (
	passCallee = 1 + iota
	passCaller
)

// calleeFirst makes the iterator yield callee-saved registers (a nil
// fixed entry) before caller-saved ones, each group in candidate order,
// and rewinds it.
func (it *candIter) calleeFirst(fixed []*liveness.Interval) {
	it.fixed, it.pass = fixed, passCallee
	it.reset()
}

// reset rewinds the iterator to the start of the sequence.
func (it *candIter) reset() {
	it.stage, it.k = stageConform, 0
	if it.pass != 0 {
		it.pass = passCallee
	}
}

// next returns the next candidate, or false when the sequence is done.
func (it *candIter) next() (int, bool) {
	for {
		p, ok := it.nextInOrder()
		if !ok {
			if it.pass != passCallee {
				return 0, false
			}
			it.pass, it.stage, it.k = passCaller, stageConform, 0
			continue
		}
		if it.pass == passCallee && it.fixed[p] != nil ||
			it.pass == passCaller && it.fixed[p] == nil {
			continue
		}
		return p, true
	}
}

// nextInOrder steps the unpartitioned sequence.
func (it *candIter) nextInOrder() (int, bool) {
	for {
		switch it.stage {
		case stageConform:
			if it.k < len(it.conf) {
				it.k++
				return it.conf[it.k-1], true
			}
			it.stage, it.k = stageBank, 0
		case stageBank:
			for it.k < len(it.bankRegs) {
				p := it.bankRegs[it.k]
				it.k++
				if it.displ < 0 || it.cfg.Subgroup(p) != it.displ {
					return p, true
				}
			}
			it.stage, it.k = stagePreferred, 0
		case stagePreferred, stageAvoided:
			// Without a bank or avoided banks (always so for GPRs, whose
			// iterator has no file configuration) the order is yielded
			// as is.
			if it.bank < 0 && it.avoid == nil {
				if it.k < len(it.order) {
					it.k++
					return it.order[it.k-1], true
				}
				it.stage = stageDone
				continue
			}
			wantAvoided := it.stage == stageAvoided
			for it.k < len(it.order) {
				p := it.order[it.k]
				it.k++
				b := it.cfg.Bank(p)
				if b != it.bank && it.avoids(b) == wantAvoided {
					return p, true
				}
			}
			it.stage, it.k = it.stage+1, 0
			if it.avoid == nil {
				it.stage = stageDone
			}
		default:
			return 0, false
		}
	}
}

func (it *candIter) avoids(bank int) bool {
	return it.avoid != nil && it.avoid[bank/64]&(1<<(bank%64)) != 0
}

// candidates returns the candidate iterator for r (see candIter).
func (a *allocator) candidates(r ir.Reg, c ir.Class) candIter {
	if c == ir.ClassGPR {
		return candIter{order: gprOrder(), bank: -1, displ: -1}
	}
	it := candIter{cfg: a.opts.Cfg, order: a.fpOrder, bank: -1, displ: -1}
	switch a.opts.Method {
	case MethodBPC:
		a.bpcHints(&it, r)
	case MethodBCR:
		a.bcrHints(&it, r)
	}
	return it
}

// bpcHints sets up the PresCount method's order: the assigned bank's
// conforming registers, then the rest of the bank, then everything else
// (keeps the allocator total: the bank assignment is a strong preference,
// not a hard constraint, because breaking it is cheaper than spilling —
// paper §III-B).
func (a *allocator) bpcHints(it *candIter, r ir.Reg) {
	cfg := a.opts.Cfg
	// Spill pseudo-registers inherit the bank of the register they stand
	// in for, so reload/store sites keep the RCG coloring.
	r = a.origin(r)
	bank, haveBank := a.opts.BankOf[r]
	if !haveBank {
		bank, haveBank = a.opts.FreeHints[r]
	}
	if !haveBank {
		return
	}
	it.bank = bank
	if cfg.HasSubgroups() {
		it.displ = a.subgroupDispl(r)
		it.conf = cfg.RegsConforming(bank, it.displ)
	}
	it.bankRegs = cfg.RegsInBank(bank)
	// Fallback outside the assigned bank: rather than a blind order, reuse
	// the per-instruction avoidance of the bcr heuristic, so a broken bank
	// assignment still dodges the hottest conflict partner.
	a.bcrHints(it, r)
}

// subgroupDispl implements Algorithm 2's displacement bookkeeping: the
// register's SDG group receives the least-used subgroup the first time any
// member allocates, and every member afterwards reuses it. Split-generated
// registers absent from the group map fall back to the least-used subgroup
// individually.
func (a *allocator) subgroupDispl(r ir.Reg) int {
	group, ok := a.opts.SubgroupGroups[r]
	if !ok {
		// Handle split-generated or free registers: balance individually.
		d := a.minUsedSubgroup()
		a.usage[d]++
		return d
	}
	if d, ok := a.res.GroupDispl[group]; ok {
		return d
	}
	d := a.minUsedSubgroup()
	a.res.GroupDispl[group] = d
	// Increase the usage of the subgroup by the group's size.
	a.usage[d] += a.groupSize[group]
	return d
}

func (a *allocator) minUsedSubgroup() int {
	best := 0
	for s := 1; s < len(a.usage); s++ {
		if a.usage[s] < a.usage[best] {
			best = s
		}
	}
	return best
}

// bcrHints sets up the Intel-GC-style baseline: when allocating r, look
// at ONE conflict-relevant instruction using r — the hottest site — and
// prefer free registers outside the banks of that instruction's
// already-assigned partner operands. Restricting the hint to a single
// instruction is the paper's stated limitation of the bcr heuristic ("it
// does not model bank conflict restrictions more than a single
// instruction", §V); registers read by several instructions with different
// partners therefore keep residual conflicts that the RCG-based bpc
// removes. The hint never forces anything: if every bank is "bad",
// allocation proceeds in default order (bcr avoids spills at the price of
// conflicts, §IV-A2).
func (a *allocator) bcrHints(it *candIter, r ir.Reg) {
	cfg := a.opts.Cfg
	r = a.origin(r)
	site := a.hottestConflictSite(r)
	if site == nil {
		return
	}
	mask := resizeZeroed(a.bankMask, (cfg.NumBanks+63)/64)
	a.bankMask = mask
	for i, u := range site.Uses {
		if site.Op.UseClass(i) != ir.ClassFP || u == r || !u.IsVirt() {
			continue
		}
		if p := a.assignment[u.VirtIndex()]; p >= 0 {
			b := cfg.Bank(int(p))
			mask[b/64] |= 1 << (b % 64)
			it.avoid = mask
		}
	}
}

// hottestConflictSite returns the conflict-relevant instruction reading r
// whose enclosing block has the highest estimated frequency (the site a
// single-instruction heuristic would optimize for), or nil.
func (a *allocator) hottestConflictSite(r ir.Reg) *ir.Instr {
	if !a.sitesBuilt {
		a.sitesBuilt = true
		n := len(a.f.VRegs)
		a.conflictSites = resizeZeroed(a.conflictSites, n)
		a.siteCost = resizeZeroed(a.siteCost, n)
		for _, b := range a.f.Blocks {
			cost := a.cf.InstrCost(b)
			for _, in := range b.Instrs {
				if !in.Op.IsConflictRelevant() {
					continue
				}
				for i, u := range in.Uses {
					if in.Op.UseClass(i) != ir.ClassFP || !u.IsVirt() {
						continue
					}
					if v := u.VirtIndex(); a.conflictSites[v] == nil || cost > a.siteCost[v] {
						a.conflictSites[v] = in
						a.siteCost[v] = cost
					}
				}
			}
		}
	}
	if v := r.VirtIndex(); v < len(a.conflictSites) {
		return a.conflictSites[v]
	}
	return nil
}
