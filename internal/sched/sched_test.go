package sched

import (
	"math/rand"
	"testing"

	"prescount/internal/cfg"
	"prescount/internal/ir"
	"prescount/internal/liveness"
	"prescount/internal/workload"
)

// opSequence extracts the opcode list of a block.
func opSequence(b *ir.Block) []ir.Op {
	out := make([]ir.Op, len(b.Instrs))
	for i, in := range b.Instrs {
		out[i] = in.Op
	}
	return out
}

func TestPreservesDependences(t *testing.T) {
	bd := ir.NewBuilder("deps")
	base := bd.IConst(0)
	a := bd.FLoad(base, 0)
	b := bd.FLoad(base, 1)
	s := bd.FAdd(a, b)
	p := bd.FMul(s, a)
	bd.FStore(p, base, 2)
	bd.Ret()
	f := bd.Func()
	Run(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Validate RAW order: every use must be preceded by its def.
	defined := map[ir.Reg]bool{}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			for _, u := range in.Uses {
				if u.IsVirt() && !defined[u] {
					t.Fatalf("use of %v before def after scheduling", u)
				}
			}
			for _, d := range in.Defs {
				defined[d] = true
			}
		}
	}
}

func TestMemoryOpsStaySerialized(t *testing.T) {
	// Distinct base registers cannot be disambiguated: conservative
	// ordering must be preserved among potentially-aliasing accesses.
	bd := ir.NewBuilder("mem")
	base1 := bd.IConst(0)
	base2 := bd.IAddI(base1, 0) // same address, different register
	v := bd.FConst(1)
	bd.FStore(v, base1, 0)
	w := bd.FLoad(base2, 0) // must stay after the store
	bd.FStore(w, base1, 0)
	bd.Ret()
	f := bd.Func()
	Run(f)
	var memOps []ir.Op
	for _, in := range f.Blocks[0].Instrs {
		switch in.Op {
		case ir.OpFLoad, ir.OpFStore:
			memOps = append(memOps, in.Op)
		}
	}
	want := []ir.Op{ir.OpFStore, ir.OpFLoad, ir.OpFStore}
	if len(memOps) != len(want) {
		t.Fatalf("mem ops = %v", memOps)
	}
	for i := range want {
		if memOps[i] != want[i] {
			t.Fatalf("memory order changed: %v", memOps)
		}
	}
}

func TestDisjointOffsetsMayReorder(t *testing.T) {
	// Same base register, different offsets: provably disjoint, so the
	// scheduler is free to move the second load's consumer earlier. We only
	// require validity, not a specific order.
	bd := ir.NewBuilder("disjoint")
	base := bd.IConst(0)
	a := bd.FLoad(base, 0)
	b := bd.FLoad(base, 1)
	bd.FStore(a, base, 2)
	bd.FStore(b, base, 3)
	bd.Ret()
	f := bd.Func()
	Run(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestTerminatorStaysLast(t *testing.T) {
	bd := ir.NewBuilder("term")
	base := bd.IConst(0)
	var sum ir.Reg = bd.FConst(0)
	for i := 0; i < 6; i++ {
		v := bd.FLoad(base, int64(i))
		sum = bd.FAdd(sum, v)
	}
	bd.FStore(sum, base, 10)
	bd.Ret()
	f := bd.Func()
	Run(f)
	for _, b := range f.Blocks {
		last := b.Instrs[len(b.Instrs)-1]
		if !last.Op.IsTerminator() {
			t.Fatalf("block %s does not end with a terminator: %v", b.Name, opSequence(b))
		}
		for _, in := range b.Instrs[:len(b.Instrs)-1] {
			if in.Op.IsTerminator() {
				t.Fatalf("terminator scheduled into block middle: %v", opSequence(b))
			}
		}
	}
}

func TestReducesPressureOnIndependentChains(t *testing.T) {
	// Program with k independent chains interleaved badly: all loads first,
	// then all consumes. A pressure-aware scheduler should interleave
	// load/consume pairs, lowering peak FP pressure.
	bd := ir.NewBuilder("chains")
	base := bd.IConst(0)
	const k = 8
	var loaded [k]ir.Reg
	for i := 0; i < k; i++ {
		loaded[i] = bd.FLoad(base, int64(i))
	}
	for i := 0; i < k; i++ {
		d := bd.FMul(loaded[i], loaded[i])
		bd.FStore(d, base, int64(100+i))
	}
	bd.Ret()
	f := bd.Func()

	measure := func(fn *ir.Func) int {
		cf := cfg.Compute(fn)
		lv := liveness.Compute(fn, cf)
		return lv.MaxPressure(ir.ClassFP)
	}
	before := measure(f)
	st := Run(f)
	after := measure(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if after > before {
		t.Errorf("scheduling increased pressure: %d -> %d", before, after)
	}
	if before == k && after >= k {
		t.Errorf("expected pressure reduction from %d, got %d (reordered=%d)", before, after, st.Reordered)
	}
}

func TestDeterministic(t *testing.T) {
	mk := func() *ir.Func {
		bd := ir.NewBuilder("det")
		base := bd.IConst(0)
		var sum ir.Reg = bd.FConst(0)
		for i := 0; i < 10; i++ {
			v := bd.FLoad(base, int64(i))
			w := bd.FMul(v, v)
			sum = bd.FAdd(sum, w)
		}
		bd.FStore(sum, base, 99)
		bd.Ret()
		return bd.Func()
	}
	f1, f2 := mk(), mk()
	Run(f1)
	Run(f2)
	if ir.Print(f1) != ir.Print(f2) {
		t.Error("scheduling is not deterministic")
	}
}

func TestSmallBlocksUntouched(t *testing.T) {
	bd := ir.NewBuilder("tiny")
	bd.Ret()
	f := bd.Func()
	st := Run(f)
	if st.Reordered != 0 {
		t.Errorf("tiny block reordered")
	}
}

// TestScheduleMatchesReference pins the incremental scheduler to the
// re-score-everything oracle of sched_ref_test.go: identical Stats and
// identical printed output on every suite function and a seeded random
// draw of 64..1000-instruction functions.
func TestScheduleMatchesReference(t *testing.T) {
	var funcs []*ir.Func
	for _, s := range []*workload.Suite{workload.SPECfp(), workload.CNN(), workload.DSAOP()} {
		for _, p := range s.Programs {
			funcs = append(funcs, p.Funcs()...)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		funcs = append(funcs, workload.RandomSized(rng.Int63(), 64+rng.Intn(1000-64+1)))
	}
	for _, f := range funcs {
		got, want := f.Clone(), f.Clone()
		gs, ws := Run(got), refRun(want)
		if gs != ws {
			t.Fatalf("%s: Stats = %+v, reference %+v", f.Name, gs, ws)
		}
		if ir.Print(got) != ir.Print(want) {
			t.Fatalf("%s: scheduled output differs from the reference", f.Name)
		}
	}
}

// TestScoreEvaluationsLinear schedules one wide ~4,000-instruction block —
// hundreds of independent load, FMA, multiply and store chains sharing a base
// register, written loads first so the ready set holds hundreds of loads
// on every pick and the scheduler interleaves the chains — and bounds the
// number of score evaluations by a small multiple of the instruction
// count. Re-scoring every ready instruction on every pick would take
// millions.
func TestScoreEvaluationsLinear(t *testing.T) {
	bd := ir.NewBuilder("wide")
	base := bd.IConst(0)
	acc := bd.FConst(1)
	const chains = 1000
	var loaded [chains]ir.Reg
	for i := range loaded {
		loaded[i] = bd.FLoad(base, int64(i))
	}
	for i := range loaded {
		x := bd.FMA(loaded[i], loaded[i], acc)
		y := bd.FMul(x, x)
		bd.FStore(y, base, int64(chains+i))
	}
	bd.Ret()
	f := bd.Func()
	n := f.NumInstrs()
	if n < 4000 {
		t.Fatalf("kernel has %d instructions, want about 4000", n)
	}
	before := ScoreEvals()
	if st := Run(f); st.Reordered != 1 {
		t.Fatalf("kernel block not reordered: %+v", st)
	}
	const c = 3
	if evals := ScoreEvals() - before; evals > c*int64(n) {
		t.Errorf("%d score evaluations for %d instructions, want at most %d", evals, n, c*n)
	} else {
		t.Logf("%d score evaluations for %d instructions", evals, n)
	}
}
