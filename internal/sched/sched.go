// Package sched implements a pre-allocation list scheduler: within each
// basic block it reorders instructions (respecting data, memory and control
// dependences) to reduce peak register pressure, in the spirit of the
// pressure-aware pre-RA schedulers the paper cites as the inspiration for
// its bank pressure tracking. It is the second standard phase of the
// Figure 4 pipeline.
package sched

import (
	"sync"
	"sync/atomic"

	"prescount/internal/ir"
)

// Stats reports scheduling activity.
type Stats struct {
	// Reordered counts blocks whose instruction order changed.
	Reordered int
}

// scoreEvals counts score evaluations, flushed once per Run. The counter
// lets a test pin scheduling work linear in block size: scores are cached
// and re-evaluated only where a register's remaining-use count can flip an
// instruction's kill status.
var scoreEvals atomic.Int64

// ScoreEvals returns the number of scheduler score evaluations run so far
// in the process.
func ScoreEvals() int64 { return scoreEvals.Load() }

// Run schedules every block of f in place. Reordering preserves control
// flow, so callers holding an analysis cache may retain the CFG; liveness
// is invalidated through the function's mutation generation.
func Run(f *ir.Func) Stats {
	var st Stats
	sc := scratchPool.Get().(*blockScratch)
	sc.numVirt = len(f.VRegs)
	for _, b := range f.Blocks {
		if sc.scheduleBlock(f, b) {
			st.Reordered++
		}
	}
	scoreEvals.Add(sc.evals)
	sc.evals = 0
	scratchPool.Put(sc)
	if st.Reordered > 0 {
		f.MarkMutated()
	}
	return st
}

// blockScratch holds the per-block working state of scheduleBlock, pooled
// across blocks and Run invocations so steady-state scheduling does not
// allocate. Everything here is indexes and counters — nothing retains IR
// pointers between blocks, so pooling is retention-safe.
type blockScratch struct {
	// succs[i] lists dependence successors of instruction i. Lists may hold
	// duplicate targets (one pair can be related by several hazards); indeg
	// counts every recorded edge, so increments and release decrements stay
	// consistent.
	succs [][]int32
	instr []instrState

	// Register tables, indexed by slot (see slot): an entry is valid only
	// while its stamp equals epoch, and each block takes a fresh epoch, so
	// a block resets exactly the entries it touches, lazily.
	numVirt int
	epoch   uint32
	stamp   []uint32
	// lastDef is the register's last defining instruction (-1: none).
	lastDef []int32
	// useHead is the register's most recent use node since its last
	// definition (-1: none); useNext/useInstr chain the nodes, so a
	// definition finds every use it must follow (WAR).
	useHead           []int32
	useNext, useInstr []int32
	// local numbers the virtual registers a block uses densely (-1: not
	// used); rem, isFP and userHead are indexed by that number.
	local []int32
	// rem counts a register's uses not yet scheduled.
	rem  []int32
	isFP []bool
	// userHead chains, through userNext/userInstr, one node per
	// instruction reading the register: the instructions whose score can
	// change when rem does.
	userHead            []int32
	userNext, userInstr []int32

	memOps []int32
	heap   []int32
	order  []int32
	evals  int64
}

// instrState is the scheduling state of one body instruction.
type instrState struct {
	indeg int32
	// defFP/defGPR count the instruction's virtual definitions per class:
	// the constant part of its score.
	defFP, defGPR int32
	// fp/gpr is the cached score: net FP and GPR live growth if the
	// instruction were scheduled now.
	fp, gpr int32
	// pos is the instruction's ready-heap index, notReady before its last
	// dependence is released, scheduled after it is picked.
	pos int32
}

const (
	notReady  = -1
	scheduled = -2
)

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// prepare sizes the per-instruction state for an n-instruction body and
// starts a new epoch, invalidating every register-table entry.
func (sc *blockScratch) prepare(n int) {
	if cap(sc.succs) < n {
		sc.succs = make([][]int32, n)
	} else {
		sc.succs = sc.succs[:n]
	}
	for i := range sc.succs {
		sc.succs[i] = sc.succs[i][:0]
	}
	if cap(sc.instr) < n {
		sc.instr = make([]instrState, n)
	} else {
		sc.instr = sc.instr[:n]
		clear(sc.instr)
	}
	sc.useNext = sc.useNext[:0]
	sc.useInstr = sc.useInstr[:0]
	sc.rem = sc.rem[:0]
	sc.isFP = sc.isFP[:0]
	sc.userHead = sc.userHead[:0]
	sc.userNext = sc.userNext[:0]
	sc.userInstr = sc.userInstr[:0]
	sc.memOps = sc.memOps[:0]
	sc.heap = sc.heap[:0]
	sc.order = sc.order[:0]
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
}

// slot returns the register-table index of r — its VirtIndex if virtual,
// past the function's virtual registers if physical — initializing the
// entry on the block's first touch.
func (sc *blockScratch) slot(r ir.Reg) int {
	s := sc.numVirt + int(r)
	if r.IsVirt() {
		s = r.VirtIndex()
	}
	if s >= len(sc.stamp) {
		sc.grow(s + 1)
	}
	if sc.stamp[s] != sc.epoch {
		sc.stamp[s] = sc.epoch
		sc.lastDef[s] = -1
		sc.useHead[s] = -1
		sc.local[s] = -1
	}
	return s
}

// grow extends the register tables to at least n entries; new entries
// carry a zero stamp, which no epoch uses.
func (sc *blockScratch) grow(n int) {
	n = max(n, 2*len(sc.stamp), sc.numVirt+2*ir.NumGPR)
	sc.stamp = append(sc.stamp, make([]uint32, n-len(sc.stamp))...)
	sc.lastDef = append(sc.lastDef, make([]int32, n-len(sc.lastDef))...)
	sc.useHead = append(sc.useHead, make([]int32, n-len(sc.useHead))...)
	sc.local = append(sc.local, make([]int32, n-len(sc.local))...)
}

// scheduleBlock performs a forward list scheduling of one block. It returns
// whether the order changed.
func (sc *blockScratch) scheduleBlock(f *ir.Func, b *ir.Block) bool {
	n := len(b.Instrs)
	if n <= 2 {
		return false
	}
	body := b.Instrs[:n-1] // keep the terminator last
	term := b.Instrs[n-1]
	sc.prepare(len(body))
	st := sc.instr

	// Build the dependence DAG. Edge lists may hold duplicates (one pair
	// can be related by several hazards at once); every duplicate counts on
	// both the indeg and the release side, so readiness is unchanged. Edge
	// targets equal the construction loop index, so each successor list
	// comes out sorted — the release order below needs no per-pop sort.
	addDep := func(from, to int) {
		if from != to {
			sc.succs[from] = append(sc.succs[from], int32(to))
			st[to].indeg++
		}
	}
	// maxUses bounds how many operands of one instruction can read the
	// same register, so a register with more remaining uses than that dies
	// at none of its readers.
	maxUses := int32(0)
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
		maxUses = max(maxUses, int32(len(in.Uses)))
		for k, u := range in.Uses {
			s := sc.slot(u)
			if d := sc.lastDef[s]; d >= 0 {
				addDep(int(d), i) // RAW
			}
			sc.useNext = append(sc.useNext, sc.useHead[s])
			sc.useInstr = append(sc.useInstr, int32(i))
			sc.useHead[s] = int32(len(sc.useNext) - 1)
			if !u.IsVirt() {
				continue
			}
			l := sc.local[s]
			if l < 0 {
				l = int32(len(sc.rem))
				sc.local[s] = l
				sc.rem = append(sc.rem, 0)
				sc.isFP = append(sc.isFP, f.VRegs[s].Class == ir.ClassFP)
				sc.userHead = append(sc.userHead, -1)
			}
			sc.rem[l]++
			if !repeated(in.Uses, k) {
				sc.userNext = append(sc.userNext, sc.userHead[l])
				sc.userInstr = append(sc.userInstr, int32(i))
				sc.userHead[l] = int32(len(sc.userNext) - 1)
			}
		}
		for _, d := range in.Defs {
			s := sc.slot(d)
			if pd := sc.lastDef[s]; pd >= 0 {
				addDep(int(pd), i) // WAW
			}
			for node := sc.useHead[s]; node >= 0; node = sc.useNext[node] {
				addDep(int(sc.useInstr[node]), i) // WAR
			}
			sc.useHead[s] = -1
			sc.lastDef[s] = int32(i)
			if d.IsVirt() {
				if f.VRegs[s].Class == ir.ClassFP {
					st[i].defFP++
				} else {
					st[i].defGPR++
				}
			}
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
	// GPR growth, then original order (stability). That key is a total
	// order, so a heap picks exactly the minimum a linear scan would.
	//
	// Scores are cached. An instruction's score changes only when one of
	// its registers can start or stop dying there, i.e. when the register's
	// remaining-use count moves while at most maxUses; the ready readers of
	// such a register are re-scored on the spot, so every cached score in
	// the heap is always current.
	for i := range body {
		st[i].pos = notReady
		if st[i].indeg == 0 {
			sc.score(body, int32(i))
			sc.push(int32(i))
		}
	}
	for len(sc.heap) > 0 {
		best := sc.pop()
		sc.order = append(sc.order, best)
		uses := body[best].Uses
		for _, u := range uses {
			if u.IsVirt() {
				sc.rem[sc.local[u.VirtIndex()]]--
			}
		}
		for k, u := range uses {
			if !u.IsVirt() || repeated(uses, k) {
				continue
			}
			l := sc.local[u.VirtIndex()]
			if sc.rem[l] > maxUses {
				continue
			}
			for node := sc.userHead[l]; node >= 0; node = sc.userNext[node] {
				j := sc.userInstr[node]
				if st[j].pos < 0 {
					continue // not ready yet (scored on release) or scheduled
				}
				fp, gpr := st[j].fp, st[j].gpr
				sc.score(body, j)
				if st[j].fp != fp || st[j].gpr != gpr {
					sc.fix(int(st[j].pos))
				}
			}
		}
		// Successor lists are sorted by construction; the heap makes the
		// release order irrelevant anyway.
		for _, s := range sc.succs[best] {
			st[s].indeg--
			if st[s].indeg == 0 {
				sc.score(body, s)
				sc.push(s)
			}
		}
	}
	order := sc.order
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

// repeated reports whether uses[k] also appears earlier in uses.
func repeated(uses []ir.Reg, k int) bool {
	for _, u := range uses[:k] {
		if u == uses[k] {
			return true
		}
	}
	return false
}

// score recomputes instruction i's cached (fp, gpr) score: its virtual
// definitions open registers, and a register dies here if this
// instruction holds all its remaining uses. Occurrences are counted inline
// over the (tiny) operand list — so x*x kills x correctly — processing
// each distinct register at its first position only.
func (sc *blockScratch) score(body []*ir.Instr, i int32) {
	sc.evals++
	st := &sc.instr[i]
	fp, gpr := st.defFP, st.defGPR
	uses := body[i].Uses
	for k, u := range uses {
		if !u.IsVirt() || repeated(uses, k) {
			continue
		}
		cnt := int32(1)
		for _, u2 := range uses[k+1:] {
			if u2 == u {
				cnt++
			}
		}
		l := sc.local[u.VirtIndex()]
		if sc.rem[l] != cnt {
			continue
		}
		if sc.isFP[l] {
			fp--
		} else {
			gpr--
		}
	}
	st.fp, st.gpr = fp, gpr
}

// The ready set is a binary min-heap of instruction indexes on (fp, gpr,
// index); instrState.pos tracks each member's position so a re-scored
// member can be fixed in place.

func (sc *blockScratch) less(a, b int32) bool {
	x, y := &sc.instr[a], &sc.instr[b]
	if x.fp != y.fp {
		return x.fp < y.fp
	}
	if x.gpr != y.gpr {
		return x.gpr < y.gpr
	}
	return a < b
}

func (sc *blockScratch) swap(i, j int) {
	h := sc.heap
	h[i], h[j] = h[j], h[i]
	sc.instr[h[i]].pos = int32(i)
	sc.instr[h[j]].pos = int32(j)
}

func (sc *blockScratch) push(i int32) {
	sc.heap = append(sc.heap, i)
	sc.instr[i].pos = int32(len(sc.heap) - 1)
	sc.up(len(sc.heap) - 1)
}

func (sc *blockScratch) pop() int32 {
	n := len(sc.heap) - 1
	sc.swap(0, n)
	sc.down(0, n)
	top := sc.heap[n]
	sc.heap = sc.heap[:n]
	sc.instr[top].pos = scheduled
	return top
}

// fix restores heap order after the member at position j changed score.
func (sc *blockScratch) fix(j int) {
	if !sc.down(j, len(sc.heap)) {
		sc.up(j)
	}
}

func (sc *blockScratch) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !sc.less(sc.heap[j], sc.heap[i]) {
			break
		}
		sc.swap(i, j)
		j = i
	}
}

// down sifts position i0 down within the first n members and reports
// whether it moved.
func (sc *blockScratch) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && sc.less(sc.heap[j2], sc.heap[j]) {
			j = j2
		}
		if !sc.less(sc.heap[j], sc.heap[i]) {
			break
		}
		sc.swap(i, j)
		i = j
	}
	return i > i0
}

// MustPrecede reports whether an instruction pair (a textually before b in
// the same block) is ordered by a dependence the scheduler must preserve: a
// register RAW/WAW/WAR pair, a potentially aliasing memory pair, or a call
// barrier. Exported for the phase-boundary verifier (internal/verify),
// which audits scheduler output against the scheduler's own dependence
// rules.
func MustPrecede(a, b *ir.Instr) bool {
	if a.Op == ir.OpCall || b.Op == ir.OpCall {
		return true // calls are full scheduling barriers
	}
	for _, d := range a.Defs {
		for _, u := range b.Uses {
			if u == d {
				return true // RAW
			}
		}
		for _, d2 := range b.Defs {
			if d2 == d {
				return true // WAW
			}
		}
	}
	for _, u := range a.Uses {
		for _, d := range b.Defs {
			if d == u {
				return true // WAR
			}
		}
	}
	return isMem(a.Op) && isMem(b.Op) && mayAlias(a, b)
}

func isMem(op ir.Op) bool {
	switch op {
	case ir.OpFLoad, ir.OpFStore, ir.OpFSpill, ir.OpFReload:
		return true
	}
	return false
}

// mayAlias reports whether two memory operations might touch the same
// location and therefore must stay ordered. It applies three facts:
// two reads never conflict; spill slots live in a private area disjoint
// from program memory; accesses off the same base register with different
// offsets are disjoint.
func mayAlias(a, b *ir.Instr) bool {
	aRead := a.Op == ir.OpFLoad || a.Op == ir.OpFReload
	bRead := b.Op == ir.OpFLoad || b.Op == ir.OpFReload
	if aRead && bRead {
		return false
	}
	aSpill := a.Op == ir.OpFSpill || a.Op == ir.OpFReload
	bSpill := b.Op == ir.OpFSpill || b.Op == ir.OpFReload
	if aSpill != bSpill {
		return false
	}
	if aSpill && bSpill {
		return a.Imm == b.Imm
	}
	if base(a) == base(b) && base(a) != ir.NoReg {
		return a.Imm == b.Imm
	}
	return true
}

// base returns the address base register of a program memory access.
func base(in *ir.Instr) ir.Reg {
	switch in.Op {
	case ir.OpFLoad:
		return in.Uses[0]
	case ir.OpFStore:
		return in.Uses[1]
	}
	return ir.NoReg
}
