package regalloc

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"prescount/internal/assign"
	"prescount/internal/bankfile"
	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/rcg"
	"prescount/internal/sdg"
	"prescount/internal/workload"
)

// This file keeps the candidate-list builders the lazy candidate iterator
// replaced — a full NumRegs-long list per assignOne, the call-spanning
// callee-first partition, and the group-size scan of subgroupDispl — as
// test-only oracles. TestCandidateOrderMatchesReference asserts the
// iterator visits exactly the sequence these lists hold.

// refHints is the oracle state of one function: the hottest conflict site
// map the old bcr heuristic built once per allocation.
type refHints struct {
	a     *allocator
	sites map[ir.Reg]*ir.Instr
}

func (h *refHints) candidates(r ir.Reg, c ir.Class) []int {
	if c == ir.ClassGPR {
		return sortedRegs(numGPRFile)
	}
	switch h.a.opts.Method {
	case MethodBPC:
		return h.bpcCandidates(r)
	case MethodBCR:
		return h.bcrCandidates(r)
	default:
		return allocOrder(h.a.opts.Cfg.NumRegs)
	}
}

func (h *refHints) bpcCandidates(r ir.Reg) []int {
	a := h.a
	cfg := a.opts.Cfg
	if parent := a.pseudoParent[r.VirtIndex()]; parent != ir.NoReg {
		r = parent
	}
	bank, haveBank := a.opts.BankOf[r]
	if !haveBank {
		bank, haveBank = a.opts.FreeHints[r]
	}
	if !haveBank {
		return allocOrder(cfg.NumRegs)
	}
	displ := -1
	if cfg.HasSubgroups() {
		displ = h.subgroupDispl(r)
	}
	seen := make([]bool, cfg.NumRegs)
	var out []int
	add := func(regs []int) {
		for _, p := range regs {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	if displ >= 0 {
		add(cfg.RegsConforming(bank, displ))
	}
	add(cfg.RegsConforming(bank, -1))
	add(h.bcrCandidates(r))
	return out
}

func (h *refHints) subgroupDispl(r ir.Reg) int {
	a := h.a
	group, ok := a.opts.SubgroupGroups[r]
	if !ok {
		d := a.minUsedSubgroup()
		a.usage[d]++
		return d
	}
	if d, ok := a.res.GroupDispl[group]; ok {
		return d
	}
	d := a.minUsedSubgroup()
	a.res.GroupDispl[group] = d
	size := 0
	for _, g := range a.opts.SubgroupGroups {
		if g == group {
			size++
		}
	}
	a.usage[d] += size
	return d
}

func (h *refHints) bcrCandidates(r ir.Reg) []int {
	a := h.a
	cfg := a.opts.Cfg
	if parent := a.pseudoParent[r.VirtIndex()]; parent != ir.NoReg {
		r = parent
	}
	site := h.hottestConflictSite(r)
	avoid := make([]bool, cfg.NumBanks)
	any := false
	if site != nil {
		for i, u := range site.Uses {
			if site.Op.UseClass(i) != ir.ClassFP || u == r || !u.IsVirt() {
				continue
			}
			if p := a.assignment[u.VirtIndex()]; p >= 0 {
				avoid[cfg.Bank(int(p))] = true
				any = true
			}
		}
	}
	all := allocOrder(cfg.NumRegs)
	if !any {
		return all
	}
	var good, bad []int
	for _, p := range all {
		if avoid[cfg.Bank(p)] {
			bad = append(bad, p)
		} else {
			good = append(good, p)
		}
	}
	return append(good, bad...)
}

func (h *refHints) hottestConflictSite(r ir.Reg) *ir.Instr {
	a := h.a
	if h.sites == nil {
		h.sites = map[ir.Reg]*ir.Instr{}
		bestCost := map[ir.Reg]float64{}
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
					if _, seen := h.sites[u]; !seen || cost > bestCost[u] {
						h.sites[u] = in
						bestCost[u] = cost
					}
				}
			}
		}
	}
	return h.sites[r]
}

// refCalleeFirst is assignOne's old CSR-aware reordering: callee-saved
// candidates first, each group in list order.
func refCalleeFirst(fixed []*liveness.Interval, cands []int) []int {
	var callee, caller []int
	for _, p := range cands {
		if fixed[p] != nil {
			caller = append(caller, p)
		} else {
			callee = append(callee, p)
		}
	}
	return append(callee, caller...)
}

// drain collects an iterator's whole sequence.
func drain(it candIter) []int {
	var out []int
	for p, ok := it.next(); ok; p, ok = it.next() {
		out = append(out, p)
	}
	return out
}

// firstDiff returns the first position where a and b differ.
func firstDiff(a, b []int) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// hintState is the allocator state candidate building may change: the
// subgroup usage and group displacements of Algorithm 2.
type hintState struct {
	usage []int
	displ map[int]int
}

func saveHints(a *allocator) hintState {
	return hintState{slices.Clone(a.usage), maps.Clone(a.res.GroupDispl)}
}

func (s hintState) restore(a *allocator) {
	copy(a.usage, s.usage)
	a.res.GroupDispl = maps.Clone(s.displ)
}

func (s hintState) equal(o hintState) bool {
	return slices.Equal(s.usage, o.usage) && maps.Equal(s.displ, o.displ)
}

// TestCandidateOrderMatchesReference allocates suite and random functions
// step by step and, before every assignOne, asserts the candidate iterator
// visits exactly the oracle's list — plain and call-partitioned, before and
// after reset — and leaves the same subgroup bookkeeping behind. It covers
// non, bcr and bpc on RV1 with 2/4/8/16 banks, RV2 with 2 and the
// subgrouped DSA file, and requires intervals that span calls, intervals
// that don't, and spill pseudo-registers to have been checked.
func TestCandidateOrderMatchesReference(t *testing.T) {
	// The smaller programs of each suite: the two SPECfp ones make calls,
	// the largest DSA-OP kernel alone would triple the run time.
	var funcs []*ir.Func
	spec, dsa := workload.SPECfp().Programs, workload.DSAOP().Programs
	for _, p := range append([]*workload.Program{spec[0], spec[7], workload.CNN().Programs[0]}, dsa[:7]...) {
		funcs = append(funcs, p.Funcs()...)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		funcs = append(funcs, workload.RandomSized(rng.Int63(), 100+rng.Intn(300)))
	}
	files := []bankfile.Config{
		bankfile.RV1(2), bankfile.RV1(4), bankfile.RV1(8), bankfile.RV1(16),
		bankfile.RV2(2), bankfile.DSA(1024),
	}
	for _, file := range files {
		for _, m := range []Method{MethodNon, MethodBCR, MethodBPC} {
			t.Run(fmt.Sprintf("%v/%v", file, m), func(t *testing.T) {
				var spanning, local, pseudos int
				for _, fn := range funcs {
					s, l, p := checkCandidateOrder(t, fn.Clone(), file, m)
					spanning, local, pseudos = spanning+s, local+l, pseudos+p
				}
				if spanning == 0 || local == 0 {
					t.Errorf("checked %d call-spanning and %d other intervals; want both", spanning, local)
				}
				if file.NumRegs <= 32 && pseudos == 0 {
					t.Errorf("no spill pseudo-register checked on %v", file)
				}
			})
		}
	}
}

// checkCandidateOrder runs one allocation of f, comparing every candidate
// sequence against the oracle, and returns how many call-spanning, other
// and spill-pseudo intervals it checked.
func checkCandidateOrder(t *testing.T, f *ir.Func, file bankfile.Config, m Method) (spanning, local, pseudos int) {
	t.Helper()
	opts := Options{Cfg: file.Normalize(), Method: m}
	if m == MethodBPC {
		cf := cfg.Compute(f)
		lv := liveness.Compute(f, cf)
		res := assign.PresCount(f, rcg.Build(f, cf), lv, opts.Cfg, assign.Options{})
		opts.BankOf, opts.FreeHints = res.BankOf, res.FreeHints
		if file.HasSubgroups() {
			opts.SubgroupGroups = sdg.Build(f).GroupOf()
		}
	}
	a := new(allocator)
	a.init(f, opts)
	a.start()
	ref := &refHints{a: a}
	for a.queue.Len() > 0 {
		r := a.queue.pop()
		if a.assignment[r.VirtIndex()] >= 0 {
			continue
		}
		c := a.classOf(r)
		before := saveHints(a)
		want := ref.candidates(r, c)
		after := saveHints(a)
		before.restore(a)
		it := a.candidates(r, c)
		got := drain(it)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %v: candidate order differs from the reference from position %d: got %d candidates, want %d",
				f.Name, r, firstDiff(got, want), len(got), len(want))
		}
		if !saveHints(a).equal(after) {
			t.Fatalf("%s: %v: subgroup bookkeeping differs from the reference", f.Name, r)
		}
		it.reset()
		if again := drain(it); !slices.Equal(again, want) {
			t.Fatalf("%s: %v: order after reset differs", f.Name, r)
		}
		if a.spansCall(a.intervalOf(r)) {
			spanning++
			it.calleeFirst(a.fixed(c))
			want := refCalleeFirst(a.fixed(c), want)
			if got := drain(it); !slices.Equal(got, want) {
				t.Fatalf("%s: %v: callee-first order differs from the reference", f.Name, r)
			}
		} else {
			local++
		}
		if a.origin(r) != r {
			pseudos++
		}
		before.restore(a)
		if err := a.assignOne(r); err != nil {
			t.Fatal(err)
		}
	}
	return spanning, local, pseudos
}
