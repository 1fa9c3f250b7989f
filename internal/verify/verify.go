// Package verify is the pipeline's phase-boundary static verifier, in the
// spirit of LLVM's MachineVerifier (-verify-machineinstrs): between every
// stage of the Figure-4 pipeline it re-derives the invariants the next
// stage relies on and fails the compile with a pinpointed diagnostic when
// one is broken, instead of letting an allocator bug surface as a silent
// miscompile downstream.
//
// Every check carries a named rule ID (see the Rule* constants) inside an
// *ir.Diag, recoverable from the error chain with errors.As. The rule
// catalog:
//
//	V001-wellformed          structural IR invariants (ir.Func.Verify)
//	V002-def-before-use      a phase made a register read-before-write
//	V003-loop-metadata       loop trip counts invalid or silently changed
//	V010-liveness-agree      cached liveness disagrees with a recompute
//	V020-bank-constraint     bank assignment breaks an RCG edge unforced
//	V021-conflict-recount    reported conflicts not reproducible fresh
//	V030-physreg-overlap     two live-overlapping values share a register
//	V031-vreg-remains        a virtual register survived allocation
//	V032-spill-pairing       reload without store / shared or bad slot
//	V033-class-legal         assignment outside the class's register file
//	V034-phys-use-before-def a physical register is read undefined
//	V040-sched-deps          scheduling reordered a dependent pair
//
// The verifier is strictly off the hot path: core.Compile invokes it only
// from check level core.CheckPhases up, and the ChecksRun counter lets
// tests assert the disabled mode executes zero checks.
package verify

import (
	"sync/atomic"

	"prescount/internal/ir"
	"prescount/internal/sched"
)

// Rule IDs of the verifier. V001 and V003 are shared with ir.Func.Verify.
const (
	RuleWellFormed   = ir.RuleWellFormed
	RuleDefBeforeUse = "V002-def-before-use"
	RuleLoopMeta     = ir.RuleLoopMeta
	RuleLiveness     = "V010-liveness-agree"
	RuleBank         = "V020-bank-constraint"
	RuleConflicts    = "V021-conflict-recount"
	RulePhysOverlap  = "V030-physreg-overlap"
	RuleVRegRemains  = "V031-vreg-remains"
	RuleSpillPair    = "V032-spill-pairing"
	RuleClassLegal   = "V033-class-legal"
	RulePhysUndef    = "V034-phys-use-before-def"
	RuleSchedDeps    = "V040-sched-deps"
)

// Diag is the diagnostic type of every verifier failure, shared with
// ir.Func.Verify so both layers speak one currency.
type Diag = ir.Diag

// checks counts executed verifier entry points. The disabled-mode
// zero-cost contract is asserted against it: compiling at core.CheckNone
// must leave it untouched.
var checks atomic.Int64

// ChecksRun returns the number of verifier entry points executed so far in
// the process (snapshots and checks alike).
func ChecksRun() int64 { return checks.Load() }

// WellFormed re-runs the structural IR verifier (rules V001/V003) at a
// phase boundary.
func WellFormed(f *ir.Func) error {
	checks.Add(1)
	return f.Verify()
}

// Snapshot captures the pre-phase state a delta check compares against:
// per-block instruction order (shared *ir.Instr pointers; phases reorder
// and rewrite in place but the identity of surviving instructions is
// stable within a phase), trip-count metadata, and the entry-live-in set.
type Snapshot struct {
	blocks []blockSnap
	liveIn map[ir.Reg]bool
}

type blockSnap struct {
	name   string
	trip   int64
	instrs []*ir.Instr
}

// Capture snapshots f before a phase runs.
func Capture(f *ir.Func) *Snapshot {
	checks.Add(1)
	s := &Snapshot{liveIn: EntryLive(f)}
	for _, b := range f.Blocks {
		s.blocks = append(s.blocks, blockSnap{
			name:   b.Name,
			trip:   b.TripCount,
			instrs: append([]*ir.Instr(nil), b.Instrs...),
		})
	}
	return s
}

// CheckDelta verifies the invariants every prefix phase must preserve:
// loop trip-count metadata is unchanged (V003) and the entry-live-in set
// did not grow — no phase may introduce a read of an undefined register
// (V002). phase names the phase that just ran, for the diagnostic.
func (s *Snapshot) CheckDelta(f *ir.Func, phase string) error {
	checks.Add(1)
	if len(f.Blocks) != len(s.blocks) {
		return ir.Diagf(RuleLoopMeta, f.Name, "", -1,
			"%s changed the block count from %d to %d", phase, len(s.blocks), len(f.Blocks))
	}
	for i, b := range f.Blocks {
		if b.Name != s.blocks[i].name {
			return ir.Diagf(RuleLoopMeta, f.Name, b.Name, -1,
				"%s replaced block %q at layout position %d", phase, s.blocks[i].name, i)
		}
		if b.TripCount != s.blocks[i].trip {
			return ir.Diagf(RuleLoopMeta, f.Name, b.Name, -1,
				"%s changed the loop trip count from %d to %d", phase, s.blocks[i].trip, b.TripCount)
		}
	}
	now := EntryLive(f)
	for r := range now {
		if !r.IsVirt() || s.liveIn[r] {
			continue
		}
		blk, idx := firstUse(f, r)
		return ir.Diagf(RuleDefBeforeUse, f.Name, blk, idx,
			"%s made register %v read before any definition", phase, r)
	}
	return nil
}

// CheckSched verifies scheduling output against the pre-sched snapshot
// (V040): each block holds a permutation of its previous instructions, and
// every pair ordered by a dependence the scheduler's own rules
// (sched.MustPrecede) recognize keeps its relative order.
func (s *Snapshot) CheckSched(f *ir.Func) error {
	checks.Add(1)
	if len(f.Blocks) != len(s.blocks) {
		return ir.Diagf(RuleSchedDeps, f.Name, "", -1,
			"scheduling changed the block count from %d to %d", len(s.blocks), len(f.Blocks))
	}
	for bi, b := range f.Blocks {
		pre := s.blocks[bi].instrs
		if len(b.Instrs) != len(pre) {
			return ir.Diagf(RuleSchedDeps, f.Name, b.Name, -1,
				"scheduling changed the instruction count from %d to %d", len(pre), len(b.Instrs))
		}
		pos := make(map[*ir.Instr]int, len(b.Instrs))
		for i, in := range b.Instrs {
			pos[in] = i
		}
		// now[i] is the post-sched position of pre[i].
		now := make([]int, len(pre))
		for i, in := range pre {
			p, ok := pos[in]
			if !ok {
				return ir.Diagf(RuleSchedDeps, f.Name, b.Name, i,
					"scheduling dropped or replaced %s (pre-sched position %d)", in.Op, i)
			}
			now[i] = p
		}
		// Every dependent pair must keep its pre-sched relative order; only
		// pairs the schedule swapped need the dependence test.
		for i := 0; i < len(pre); i++ {
			for j := i + 1; j < len(pre); j++ {
				if now[i] > now[j] && sched.MustPrecede(pre[i], pre[j]) {
					return ir.Diagf(RuleSchedDeps, f.Name, b.Name, now[j],
						"scheduling reordered dependent pair %s (now #%d) and %s (now #%d)",
						pre[i].Op, now[i], pre[j].Op, now[j])
				}
			}
		}
	}
	return nil
}

// EntryLive computes the set of registers (virtual and physical) live into
// the entry block: values the function reads on some path before writing.
// It is a self-contained backward dataflow, independent of
// internal/liveness, so verifier conclusions never share a cache — or a
// bug — with the analyses under audit.
func EntryLive(f *ir.Func) map[ir.Reg]bool {
	checks.Add(1)
	n := len(f.Blocks)
	gen := make([]map[ir.Reg]bool, n)
	kill := make([]map[ir.Reg]bool, n)
	liveIn := make([]map[ir.Reg]bool, n)
	for _, b := range f.Blocks {
		g, k := map[ir.Reg]bool{}, map[ir.Reg]bool{}
		for _, in := range b.Instrs {
			for _, u := range in.Uses {
				if u != ir.NoReg && !k[u] {
					g[u] = true
				}
			}
			for _, d := range in.Defs {
				if d != ir.NoReg {
					k[d] = true
				}
			}
		}
		gen[b.ID], kill[b.ID] = g, k
		liveIn[b.ID] = map[ir.Reg]bool{}
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			in := liveIn[b.ID]
			for r := range gen[b.ID] {
				if !in[r] {
					in[r] = true
					changed = true
				}
			}
			for _, s := range b.Succs {
				for r := range liveIn[s.ID] {
					if !kill[b.ID][r] && !in[r] {
						in[r] = true
						changed = true
					}
				}
			}
		}
	}
	return liveIn[f.Entry().ID]
}

// firstUse locates the first textual use of r, for diagnostics.
func firstUse(f *ir.Func, r ir.Reg) (block string, instr int) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, u := range in.Uses {
				if u == r {
					return b.Name, i
				}
			}
		}
	}
	return "", -1
}
