package regalloc

import (
	"math"

	"prescount/internal/ir"
	"prescount/internal/liveness"
)

// spill assigns r a stack slot and splits its live range into
// pseudo-registers. Consecutive uses within one block — with no
// intervening call, definition of r, or overly long gap — share a single
// pseudo-register (a "span"): the value is reloaded once and reused, the
// classic region-based spill placement. Definitions get their own
// one-slot pseudo followed by a store. The pseudos carry infinite weight
// (they must get a register; they can evict anything finite) and are
// queued for allocation. No instructions are inserted yet — the
// slot-index space must stay stable — the rewrite happens in materialize.
//
// If a span pseudo itself becomes unallocatable (pathological pressure),
// assignOne demotes it back to per-use pseudos, so spilling always
// terminates at the finest granularity.
//
// Registers whose sole definition is a constant are rematerialized instead
// of stack-spilled: the constant is re-emitted at every use and no spill
// slot or store is needed (the classic cheap-to-recompute optimization).
func (a *allocator) spill(r ir.Reg, c ir.Class) {
	a.spilled.Add(r)
	a.res.SpilledVRegs++
	if def := a.rematSource(r); def != nil {
		a.remat[r] = def
		a.res.Remats++
	} else {
		a.spillSlot[r] = a.f.SpillSlots
		a.f.SpillSlots++
	}

	// maxSpanSlots bounds how long one reload may be kept live; longer
	// spans raise pressure for everyone else.
	const maxSpanSlots = 24

	for _, b := range a.f.Blocks {
		type useSite struct {
			in   *ir.Instr
			slot int
		}
		var span []useSite
		flush := func() {
			if len(span) == 0 {
				return
			}
			start := span[0].slot
			end := span[len(span)-1].slot + 1
			p := a.newPseudo(c, start, end)
			a.pseudoParent[p.VirtIndex()] = r
			for i, site := range span {
				a.sitePseudo[siteKey{site.in, r, false}] = p
				if i == 0 {
					a.firstReload[siteKey{site.in, r, false}] = true
				}
			}
			a.spanMembers[p] = make([]*ir.Instr, len(span))
			for i, site := range span {
				a.spanMembers[p][i] = site.in
			}
			span = span[:0]
		}
		for i, in := range b.Instrs {
			s := a.lv.ReadSlot(b, i)
			if in.Op == ir.OpCall {
				flush() // the reloaded value would be clobbered
				continue
			}
			if a.splitChildAt(r, s) != ir.NoReg {
				continue // this region belongs to a loop-split child
			}
			if len(span) > 0 && s+1-span[0].slot > maxSpanSlots {
				flush()
			}
			usesR := false
			for _, u := range in.Uses {
				if u == r {
					usesR = true
				}
			}
			if usesR {
				span = append(span, useSite{in, s})
			}
			for _, d := range in.Defs {
				if d == r {
					// A definition produces a new value: close the current
					// span (its members read the old value) and store the
					// new one from a fresh one-slot pseudo.
					flush()
					p := a.newPseudo(c, s+1, s+2)
					a.sitePseudo[siteKey{in, r, true}] = p
					a.pseudoParent[p.VirtIndex()] = r
					break
				}
			}
		}
		flush()
	}
}

// demoteSpan splits an unallocatable span pseudo back into per-use
// pseudos and requeues them. Returns false if the pseudo is already at
// the finest granularity.
func (a *allocator) demoteSpan(p ir.Reg) bool {
	members := a.spanMembers[p]
	if len(members) <= 1 {
		return false
	}
	parent := a.pseudoParent[p.VirtIndex()]
	c := a.classOf(p)
	delete(a.spanMembers, p)
	delete(a.override, p)
	delete(a.weightOverride, p)
	// Locate each member's slot again via the instruction's site key; the
	// member order preserved from spill() is block order, and slots are
	// recoverable from the liveness linearization.
	for _, b := range a.f.Blocks {
		for i, in := range b.Instrs {
			key := siteKey{in, parent, false}
			if a.sitePseudo[key] != p {
				continue
			}
			s := a.lv.ReadSlot(b, i)
			np := a.newPseudo(c, s, s+1)
			a.pseudoParent[np.VirtIndex()] = parent
			a.sitePseudo[key] = np
			a.firstReload[key] = true
			a.spanMembers[np] = []*ir.Instr{in}
		}
	}
	return true
}

// rematSource returns the single constant-producing definition of r, or
// nil when r is not rematerializable (multiple definitions, or a
// non-constant producer).
func (a *allocator) rematSource(r ir.Reg) *ir.Instr {
	var def *ir.Instr
	for _, b := range a.f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Defs {
				if d != r {
					continue
				}
				if def != nil {
					return nil // redefined
				}
				if in.Op != ir.OpFConst && in.Op != ir.OpIConst {
					return nil
				}
				def = in
			}
		}
	}
	return def
}

// newPseudo creates a spill pseudo-register with a synthesized interval.
func (a *allocator) newPseudo(c ir.Class, start, end int) ir.Reg {
	p := a.newVReg(c)
	iv := &liveness.Interval{}
	iv.Add(start, end)
	a.override[p] = iv
	a.weightOverride[p] = math.Inf(1)
	a.queue.push(p, math.Inf(1))
	return p
}

// materialize rewrites the function onto physical registers and inserts the
// planned spill code.
func (a *allocator) materialize() {
	cfg := a.opts.Cfg
	encode := a.physOf

	for _, b := range a.f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs))
		for i, in := range b.Instrs {
			slot := a.lv.ReadSlot(b, i)
			// Reloads (or rematerializations) for spilled uses: one per
			// span, emitted at the span's first member. Uses inside a
			// loop-split range read the child register instead.
			for k, u := range in.Uses {
				if !u.IsVirt() {
					continue
				}
				if child := a.splitChildAt(u, slot); child != ir.NoReg {
					in.Uses[k] = encode(child)
					continue
				}
				if !a.spilled.Has(u) {
					in.Uses[k] = encode(u)
					continue
				}
				key := siteKey{in, u, false}
				pseudo := a.sitePseudo[key]
				phys := encode(pseudo)
				if a.firstReload[key] {
					delete(a.firstReload, key) // one reload even if u repeats
					if def, isRemat := a.remat[u]; isRemat {
						out = append(out, &ir.Instr{
							Op:   def.Op,
							Defs: []ir.Reg{phys},
							Imm:  def.Imm,
							FImm: def.FImm,
						})
					} else {
						op := ir.OpFReload
						if a.classOf(u) == ir.ClassGPR {
							op = ir.OpIReload
						}
						out = append(out, &ir.Instr{
							Op:   op,
							Defs: []ir.Reg{phys},
							Imm:  int64(a.spillSlot[u]),
						})
						a.res.SpillReloads++
					}
				}
				in.Uses[k] = phys
			}
			out = append(out, in)
			// Stores for spilled defs; rematerialized registers need none
			// (their defining constant is re-emitted at each use).
			for k, d := range in.Defs {
				if !d.IsVirt() {
					continue
				}
				if !a.spilled.Has(d) {
					in.Defs[k] = encode(d)
					continue
				}
				pseudo := a.sitePseudo[siteKey{in, d, true}]
				phys := encode(pseudo)
				in.Defs[k] = phys
				if _, isRemat := a.remat[d]; isRemat {
					continue
				}
				op := ir.OpFSpill
				if a.classOf(d) == ir.ClassGPR {
					op = ir.OpISpill
				}
				out = append(out, &ir.Instr{
					Op:   op,
					Uses: []ir.Reg{phys},
					Imm:  int64(a.spillSlot[d]),
				})
				a.res.SpillStores++
			}
		}
		b.Instrs = out
	}
	a.materializeSplits()
	a.f.NumFPRegs = cfg.NumRegs
}
