// Package tv is the pipeline's translation validator: a dataflow-based
// symbolic equivalence check between the pre-allocation MIR and the
// allocated output, in the spirit of compiler translation-validation
// work. Where internal/verify audits each phase against local rules
// (V001–V040), tv proves a global property of the end-to-end compile:
// every value the allocated program computes, stores, or branches on is
// the value the reference program computes at the same place.
//
// # Abstract domain
//
// Both programs are executed symbolically over value numbers interned
// in one shared table: a computation's number is determined by its
// opcode, immediate and operand numbers (commutative operands sorted),
// so identical computations in the two programs collide by
// construction. The reference state maps virtual registers to numbers;
// the allocated state maps physical registers and spill slots — the
// renames, copies, spills and reloads the allocator inserted are
// transparent, because they only move numbers between locations.
// Program memory is a single location whose number evolves with each
// block's store multiset; loads are numbered over their base address,
// offset, the incoming memory state and the order-insensitive chain of
// preceding in-block stores that may alias them, which makes the model
// exactly as order-sensitive as the scheduler's own alias rules
// (sched.MustPrecede): provably disjoint stores may reorder freely,
// may-aliasing ones may not.
//
// # Join
//
// The reference is iterated to a fixed point; a block entry where
// incoming values disagree mints a sticky phi number per (block,
// location), and after convergence each phi records its incoming value
// per predecessor edge. The allocated side then runs one pass in
// reverse postorder, resolving each join against that table: a live-in
// location whose edges match a reference phi's edges adopts the phi's
// number, an agreeing-but-incomplete join adopts the loop-invariant
// interpretation, and every adoption is re-verified against all edges
// after the pass (ambiguous matches are retried with the next
// candidate). A join no reference merge explains yields a clash number
// that is an error exactly when a use resolves to it — T008, the
// signature of a cross-block copy misroute.
//
// # Rule catalog
//
//	T001-value-mismatch     an allocated computation's operand resolves
//	                        to the wrong value (wrong rename, stale or
//	                        crossed spill slot, dropped reload)
//	T002-store-divergence   a store is missing, extra, wrong-valued, or
//	                        reordered against a may-aliasing store
//	T003-branch-divergence  a branch condition or terminator diverges
//	T004-undef-read         a use resolves to a never-written register
//	T005-clobber-read       a use resolves to a value clobbered by a
//	                        call (live range wrongly crosses a call in
//	                        a caller-saved register)
//	T006-slot-undef         a reload reads a never-stored spill slot
//	                        (dropped spill store)
//	T007-call-divergence    a block's call count changed
//	T008-join-inconsistent  a live-in location at a CFG join matches no
//	                        reference merge
//	T009-anchor-missing     a reference computation has no allocated
//	                        counterpart (the pipeline performs no CSE
//	                        or DCE on real computations, so this is
//	                        conservative by design)
//	T010-mem-divergence     a block's outgoing memory state diverges
//	T011-shape-divergence   block structure diverges, or the checker's
//	                        fixpoint failed to converge
//
// Like the verifier, tv is strictly off the hot path: core.Compile
// invokes it only from core.CheckValidate up, and the ChecksRun counter
// lets tests assert the disabled mode executes zero checks.
package tv

import (
	"sync/atomic"

	"prescount/internal/ir"
)

// Rule IDs of the translation validator.
const (
	RuleValue     = "T001-value-mismatch"
	RuleStore     = "T002-store-divergence"
	RuleBranch    = "T003-branch-divergence"
	RuleUndef     = "T004-undef-read"
	RuleClobber   = "T005-clobber-read"
	RuleSlotUndef = "T006-slot-undef"
	RuleCall      = "T007-call-divergence"
	RuleJoin      = "T008-join-inconsistent"
	RuleAnchor    = "T009-anchor-missing"
	RuleMem       = "T010-mem-divergence"
	RuleFixpoint  = "T011-shape-divergence"
)

// Diag is the diagnostic type of every validator failure, shared with
// ir.Func.Verify and internal/verify so all three layers speak one
// currency.
type Diag = ir.Diag

// checks counts Check invocations. The disabled-mode zero-cost contract
// is asserted against it: compiling at core.CheckNone must leave
// it untouched.
var checks atomic.Int64

// ChecksRun returns the number of validation checks executed so far in
// the process.
func ChecksRun() int64 { return checks.Load() }

// maxGreedy bounds the greedy repair phase (advance exactly the refuted
// adoption, see greedyAdvance); maxRetries bounds the chronological
// backtracking fallback. Each retry reruns the single allocated-side
// pass under the next choice vector; the plausibility ordering in
// matchCandidates makes the corpus converge in one or two passes, so
// the bounds are safety valves against pathological ambiguity, not
// budgets real functions approach.
const (
	maxGreedy  = 64
	maxRetries = 256
)

// Check validates that allocated computes the same values as ref, the
// pre-allocation MIR it was compiled from. numFPRegs is the physical FP
// file size, which determines the caller-saved set OpCall clobbers.
// The first divergence is returned as a *Diag (rule T001+) locating the
// allocated block and instruction; nil means the two programs are
// symbolically equivalent.
func Check(ref, allocated *ir.Func, numFPRegs int) error {
	checks.Add(1)
	t := newVNTable()
	re := newExec(t, ref, numFPRegs)
	ae := newExec(t, allocated, numFPRegs)
	if err := checkShape(re, ae); err != nil {
		return err
	}
	if err := re.runRef(); err != nil {
		return err
	}
	// Phase 1 — greedy repair: advance the refuted adoption itself. Wrong
	// choices at independent joins (the common ambiguity: distinct values
	// that happen to share a number on the entry edge) each converge on
	// their own, in a number of passes linear in the ambiguity count.
	//
	// A refuted adoption is not itself the verdict: a genuine divergence
	// inside a block body (a wrong store, a dropped reload) poisons the
	// values flowing around every downstream loop, so the joins that carry
	// them are refuted under every candidate even though the joins are
	// innocent. The default-choice attempt — the most plausible reading —
	// therefore also records its block comparison; if the whole choice
	// space ends up refuted, that body diagnostic (T001/T002/…, precise
	// about the real divergence) is preferred over the join refutation,
	// and the T008 join verdict stands only when the blocks compare clean.
	var choices []int
	var bodyDiag, joinDiag error
	for try := 0; try <= maxGreedy; try++ {
		adoptions := ae.runAlloc(re, choices)
		diag, refuted := ae.verifyAdoptions(re, adoptions)
		if diag == nil {
			return compareBlocks(re, ae)
		}
		if try == 0 {
			bodyDiag = compareBlocks(re, ae)
			joinDiag = diag
		}
		next, ok := greedyAdvance(adoptions, refuted)
		if !ok {
			break
		}
		choices = next
		// Rerun from scratch under the updated choices; the value-number
		// table is append-only, so prior interning stays valid.
		ae = newExec(t, allocated, numFPRegs)
	}
	// Phase 2 — chronological backtracking: complete enumeration of the
	// choice tree, for refutations whose culprit is a different join than
	// the one refuted (a poisoned join, which greedy cannot localize).
	choices = nil
	ae = newExec(t, allocated, numFPRegs)
	for try := 0; ; try++ {
		adoptions := ae.runAlloc(re, choices)
		diag, _ := ae.verifyAdoptions(re, adoptions)
		if diag == nil {
			return compareBlocks(re, ae)
		}
		next, ok := advanceChoices(adoptions)
		if !ok || try >= maxRetries {
			// Every point in the join-choice space was refuted (or the
			// safety valve tripped): the divergence is real. Report the
			// default-attempt body diagnostic when there is one; a join
			// refutation with clean bodies is the genuine T008.
			if bodyDiag != nil {
				return bodyDiag
			}
			return joinDiag
		}
		choices = next
		ae = newExec(t, allocated, numFPRegs)
	}
}

// checkShape verifies the structural frame the lockstep comparison
// assumes: the pipeline never creates, deletes, reorders or retargets
// blocks, so both functions must agree on block count, names, layout
// order, reachability, terminators and successor lists.
func checkShape(re, ae *exec) error {
	ref, al := re.f, ae.f
	if len(ref.Blocks) != len(al.Blocks) {
		return ir.Diagf(RuleFixpoint, al.Name, "", -1,
			"allocated function has %d blocks, reference has %d", len(al.Blocks), len(ref.Blocks))
	}
	for i, rb := range ref.Blocks {
		ab := al.Blocks[i]
		if rb.Name != ab.Name {
			return ir.Diagf(RuleFixpoint, al.Name, ab.Name, -1,
				"block at layout position %d is %q in the reference", i, rb.Name)
		}
		if re.inRPO[rb.ID] != ae.inRPO[ab.ID] {
			return ir.Diagf(RuleFixpoint, al.Name, ab.Name, -1,
				"block reachability diverges from the reference")
		}
		rt, at := rb.Terminator(), ab.Terminator()
		if rt == nil || at == nil || rt.Op != at.Op {
			return ir.Diagf(RuleBranch, al.Name, ab.Name, len(ab.Instrs)-1,
				"terminator diverges from the reference")
		}
		if len(rb.Succs) != len(ab.Succs) {
			return ir.Diagf(RuleBranch, al.Name, ab.Name, len(ab.Instrs)-1,
				"successor count diverges from the reference")
		}
		for j, rs := range rb.Succs {
			if rs.Name != ab.Succs[j].Name {
				return ir.Diagf(RuleBranch, al.Name, ab.Name, len(ab.Instrs)-1,
					"successor %d is %q, reference branches to %q", j, ab.Succs[j].Name, rs.Name)
			}
		}
	}
	if len(re.rpo) != len(ae.rpo) {
		return ir.Diagf(RuleFixpoint, al.Name, "", -1,
			"reachable block count diverges from the reference")
	}
	return nil
}
