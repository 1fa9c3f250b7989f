package sched

// This file keeps the list scheduler as it was before scores became
// incremental: every pick re-scores every ready instruction through
// per-register maps. It is a test-only oracle — TestScheduleMatchesReference
// asserts the production scheduler produces the same Stats and the same
// instruction order on every suite function and a seeded random draw.

import (
	"sync"

	"prescount/internal/ir"
)

// refRun schedules every block of f in place. Reordering preserves control
// flow, so callers holding an analysis cache may retain the CFG; liveness
// is invalidated through the function's mutation generation.
func refRun(f *ir.Func) Stats {
	var st Stats
	sc := refScratchPool.Get().(*refBlockScratch)
	for _, b := range f.Blocks {
		if refScheduleBlock(f, b, sc) {
			st.Reordered++
		}
	}
	refScratchPool.Put(sc)
	if st.Reordered > 0 {
		f.MarkMutated()
	}
	return st
}

// refBlockScratch holds the per-block working state of refScheduleBlock, pooled
// across blocks and Run invocations so steady-state scheduling does not
// allocate. Everything here is indexes and counters — nothing retains IR
// pointers between blocks, so pooling is retention-safe.
type refBlockScratch struct {
	// succs[i] lists dependence successors of instruction i. Lists may hold
	// duplicate targets (one pair can be related by several hazards); indeg
	// counts every recorded edge, so increments and release decrements stay
	// consistent.
	succs [][]int32
	indeg []int32
	// use chains: useHead maps a register to its most recent use node;
	// useNext/useInstr are parallel arrays forming per-register linked
	// lists (the slice-of-slices lastUses this replaces allocated a fresh
	// list per register per block).
	useHead  map[ir.Reg]int32
	useNext  []int32
	useInstr []int32
	lastDef  map[ir.Reg]int32
	remUses  map[ir.Reg]int32
	memOps   []int32
	ready    []int32
	order    []int32
}

var refScratchPool = sync.Pool{New: func() any {
	return &refBlockScratch{
		useHead: map[ir.Reg]int32{},
		lastDef: map[ir.Reg]int32{},
		remUses: map[ir.Reg]int32{},
	}
}}

func (sc *refBlockScratch) prepare(n int) {
	if cap(sc.succs) < n {
		sc.succs = make([][]int32, n)
	} else {
		sc.succs = sc.succs[:n]
	}
	for i := range sc.succs {
		sc.succs[i] = sc.succs[i][:0]
	}
	if cap(sc.indeg) < n {
		sc.indeg = make([]int32, n)
	} else {
		sc.indeg = sc.indeg[:n]
		clear(sc.indeg)
	}
	sc.useNext = sc.useNext[:0]
	sc.useInstr = sc.useInstr[:0]
	sc.memOps = sc.memOps[:0]
	sc.ready = sc.ready[:0]
	sc.order = sc.order[:0]
	clear(sc.useHead)
	clear(sc.lastDef)
	clear(sc.remUses)
}

// refScheduleBlock performs a forward list scheduling of one block. It returns
// whether the order changed.
func refScheduleBlock(f *ir.Func, b *ir.Block, sc *refBlockScratch) bool {
	n := len(b.Instrs)
	if n <= 2 {
		return false
	}
	body := b.Instrs[:n-1] // keep the terminator last
	term := b.Instrs[n-1]
	sc.prepare(len(body))

	// Build the dependence DAG. Edge lists may hold duplicates (one pair
	// can be related by several hazards at once); every duplicate counts on
	// both the indeg and the release side, so readiness is unchanged. Edge
	// targets equal the construction loop index, so each successor list
	// comes out sorted — the release order below needs no per-pop sort.
	addDep := func(from, to int) {
		if from != to {
			sc.succs[from] = append(sc.succs[from], int32(to))
			sc.indeg[to]++
		}
	}
	lastBarrier := -1
	for i, in := range body {
		// Calls are full scheduling barriers: they clobber caller-saved
		// registers, so no instruction may move across one.
		if in.Op == ir.OpCall {
			for j := lastBarrier + 1; j < i; j++ {
				addDep(j, i)
			}
			lastBarrier = i
		} else if lastBarrier >= 0 {
			addDep(lastBarrier, i)
		}
		for _, u := range in.Uses {
			if d, ok := sc.lastDef[u]; ok {
				addDep(int(d), i) // RAW
			}
			head, ok := sc.useHead[u]
			if !ok {
				head = -1
			}
			sc.useNext = append(sc.useNext, head)
			sc.useInstr = append(sc.useInstr, int32(i))
			sc.useHead[u] = int32(len(sc.useNext) - 1)
		}
		for _, d := range in.Defs {
			if pd, ok := sc.lastDef[d]; ok {
				addDep(int(pd), i) // WAW
			}
			if head, ok := sc.useHead[d]; ok {
				for node := head; node >= 0; node = sc.useNext[node] {
					addDep(int(sc.useInstr[node]), i) // WAR
				}
				delete(sc.useHead, d)
			}
			sc.lastDef[d] = int32(i)
		}
		if isMem(in.Op) {
			for _, m := range sc.memOps {
				if mayAlias(body[m], in) {
					addDep(int(m), i)
				}
			}
			sc.memOps = append(sc.memOps, int32(i))
		}
	}

	// Uses remaining per register: a def whose last use is scheduled frees
	// a register; scheduling a def opens one. Greedy choice: among ready
	// instructions pick the one minimizing net FP live growth, then net
	// GPR growth, then original order (stability).
	for _, in := range body {
		for _, u := range in.Uses {
			if u.IsVirt() {
				sc.remUses[u]++
			}
		}
	}
	ready := sc.ready
	for i := range body {
		if sc.indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	score := func(i int32) (fpDelta, gprDelta int) {
		in := body[i]
		for _, d := range in.Defs {
			if !d.IsVirt() {
				continue
			}
			if f.RegClass(d) == ir.ClassFP {
				fpDelta++
			} else {
				gprDelta++
			}
		}
		// A register dies here if this instruction holds all its remaining
		// uses. Occurrences are counted inline over the (tiny) operand list
		// — so x*x kills x correctly — processing each distinct register at
		// its first position only.
		uses := in.Uses
		for k, u := range uses {
			if !u.IsVirt() {
				continue
			}
			cnt := int32(0)
			dup := false
			for k2, u2 := range uses {
				if u2 != u {
					continue
				}
				if k2 < k {
					dup = true
					break
				}
				cnt++
			}
			if dup || sc.remUses[u] != cnt {
				continue
			}
			if f.RegClass(u) == ir.ClassFP {
				fpDelta--
			} else {
				gprDelta--
			}
		}
		return
	}
	order := sc.order
	for len(ready) > 0 {
		best, bi := ready[0], 0
		bf, bg := score(best)
		for k := 1; k < len(ready); k++ {
			cand := ready[k]
			cf2, cg := score(cand)
			if cf2 < bf || (cf2 == bf && cg < bg) ||
				(cf2 == bf && cg == bg && cand < best) {
				best, bi, bf, bg = cand, k, cf2, cg
			}
		}
		ready = append(ready[:bi], ready[bi+1:]...)
		order = append(order, best)
		for _, u := range body[best].Uses {
			if u.IsVirt() {
				sc.remUses[u]--
			}
		}
		// Successor lists are sorted by construction, and a node reaches
		// indeg zero at the last duplicate of its last releasing edge —
		// last duplicates appear in ascending target order, so nodes enter
		// the ready list exactly as the earlier sorted-unique release did.
		for _, s := range sc.succs[best] {
			sc.indeg[s]--
			if sc.indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	sc.ready, sc.order = ready[:0], order
	if len(order) != len(body) {
		// Cycle (cannot happen with a well-formed DAG); keep original.
		return false
	}
	changed := false
	for pos, idx := range order {
		if int(idx) != pos {
			changed = true
			break
		}
	}
	if !changed {
		return false
	}
	// The rewritten body escapes into b.Instrs: always fresh heap, never
	// scratch.
	newBody := make([]*ir.Instr, 0, n)
	for _, idx := range order {
		newBody = append(newBody, body[idx])
	}
	b.Instrs = append(newBody, term)
	return true
}
