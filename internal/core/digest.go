package core

import (
	"hash/fnv"
	"math"
)

// The compile cache keys every entry by (function fingerprint, options
// digest). The digest is split by pipeline reach (see DESIGN.md, "Compile
// cache"):
//
//   - Prefix phases (coalescing → SDG splitting → scheduling) read only
//     DisableCoalesce, Subgroups, SDGMaxGroup and DisableSched. Two option
//     sets agreeing on those fields produce identical post-scheduling
//     functions, whatever their File, Method or suffix ablations — that is
//     what lets one prefix snapshot serve a whole (bank × method) sweep.
//   - The allocation phase, for bank-oblivious methods (non, and brc whose
//     allocation phase is non's), additionally reads only the register
//     count, the subgroup count and the allocator selector — crucially NOT
//     the bank count or the method, so AllocDigest excludes them and one
//     allocation serves every bank point and both methods.
//   - Suffix phases (bank assignment → allocation → renumbering → conflict
//     analysis) additionally read File, Method and LinearScan; THRES,
//     DisablePressure and DisableFreeHints reach only the bpc bank
//     assigner, so they enter the digest only under MethodBPC (any other
//     method ignores them, and hashing them would split identical
//     compiles into distinct entries).
//
// Cache, Workers, Check and VerifyMemSize never affect the compiled
// output and are deliberately excluded from all digests (any Check level
// above CheckNone bypasses the cache entirely — the checks must actually
// run; see Compile).

// PrefixDigest returns the digest of the options that reach the
// method-independent pipeline prefix. SDGMaxGroup is hashed only when
// subgroup splitting actually runs — it is dead configuration otherwise.
func (o Options) PrefixDigest() uint64 {
	h := fnv.New64a()
	writeBool(h, o.DisableCoalesce)
	writeBool(h, o.Subgroups)
	if o.Subgroups {
		writeU64(h, uint64(int64(o.SDGMaxGroup)))
	}
	writeBool(h, o.DisableSched)
	return h.Sum64()
}

// FullDigest returns the digest of every option that can influence the
// compiled Result: the prefix fields plus the suffix-only ones. The File is
// normalized first so zero-default and explicit-default configurations
// (NumSubgroups/ReadPorts 0 vs 1) address the same entry. Options that only
// the bpc bank assigner reads are hashed only under MethodBPC; the method
// itself is always hashed, so the conditional cannot collide two
// semantically different option sets.
func (o Options) FullDigest() uint64 {
	file := o.File.Normalize()
	h := fnv.New64a()
	writeU64(h, o.PrefixDigest())
	writeU64(h, uint64(int64(file.NumRegs)))
	writeU64(h, uint64(int64(file.NumBanks)))
	writeU64(h, uint64(int64(file.NumSubgroups)))
	writeU64(h, uint64(int64(file.ReadPorts)))
	writeU64(h, uint64(int64(o.Method)))
	if o.Method == MethodBPC {
		writeU64(h, math.Float64bits(o.THRES))
		writeBool(h, o.DisablePressure)
		writeBool(h, o.DisableFreeHints)
	}
	// The allocator-method knobs follow the same gating: each reaches only
	// its own allocator, so hashing it under any other method would split
	// identical compiles into distinct cache entries.
	if o.Method == MethodColoring {
		writeU64(h, uint64(int64(o.ColoringTimeout)))
	}
	if o.Method == MethodBinpack {
		writeU64(h, uint64(int64(o.BinpackMaxRescues)))
	}
	writeBool(h, o.LinearScan)
	return h.Sum64()
}

// AllocDigest returns the digest of the options that reach the allocation
// phase of a bank-oblivious compile (allocCacheable must hold). It covers
// the prefix digest (the allocation's input function depends on it) plus
// the File fields the allocator reads — NumRegs and NumSubgroups, never
// NumBanks or ReadPorts — and the allocator selector. Method is excluded
// by design: brc's allocation phase is non's, so both share one entry.
func (o Options) AllocDigest() uint64 {
	file := o.File.Normalize()
	h := fnv.New64a()
	writeU64(h, o.PrefixDigest())
	writeU64(h, uint64(int64(file.NumRegs)))
	writeU64(h, uint64(int64(file.NumSubgroups)))
	writeBool(h, o.LinearScan)
	return h.Sum64()
}

type byteWriter interface{ Write(p []byte) (int, error) }

func writeBool(h byteWriter, b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	h.Write([]byte{v})
}

func writeU64(h byteWriter, v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}
