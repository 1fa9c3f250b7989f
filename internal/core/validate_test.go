package core

import (
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/tv"
	"prescount/internal/workload"
)

// TestLoopSplitCopyBackRegression pins the loop-split copy-back fix the
// translation validator uncovered: this workload function forces the
// allocator to split a value around a loop while its parent keeps a
// register, and loop-local values reuse that register inside the loop —
// without the exit copy-back, the post-call use of the parent reads
// whatever the loop left behind. Both the dynamic checksum verifier and
// the symbolic validator must agree the compile is sound.
func TestLoopSplitCopyBackRegression(t *testing.T) {
	f := workload.SPECfp().Programs[1].Funcs()[10]
	tiny := bankfile.Config{NumRegs: 8, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}
	res, err := Compile(f, Options{File: tiny, Method: MethodNon, Check: CheckExec})
	if err != nil {
		t.Fatalf("split copy-back regression: %v", err)
	}
	if res.Alloc == nil || res.Alloc.LoopSplits == 0 {
		t.Skip("workload no longer triggers a loop split; shape covered by corpus validation")
	}
}

// TestValidateBypassesCache pins the cache interaction: a validated
// compile must not be served from the compile cache (the validation has
// to actually run), must not poison the cache for later plain compiles,
// and must produce byte-identical output to a plain compile.
func TestValidateBypassesCache(t *testing.T) {
	f := hotConflicts(t)
	cache := compilecache.New()
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC, Cache: cache}

	plain, err := Compile(f.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	before := tv.ChecksRun()
	vopts := opts
	vopts.Check = CheckValidate
	validated, err := Compile(f.Clone(), vopts)
	if err != nil {
		t.Fatal(err)
	}
	if tv.ChecksRun() == before {
		t.Fatal("validated compile was served from the cache: no tv check ran")
	}
	if plain.Func.Fingerprint() != validated.Func.Fingerprint() {
		t.Error("validated compile produced different code than the plain compile")
	}
	// A later plain compile may hit the cache and must match too.
	again, err := Compile(f.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Func.Fingerprint() != plain.Func.Fingerprint() {
		t.Error("plain compile after a validated one diverged")
	}
}

// TestValidateZeroCostWhenDisabled pins the zero-cost contract from the
// DESIGN notes: compiling at CheckNone must execute zero
// validator checks.
func TestValidateZeroCostWhenDisabled(t *testing.T) {
	before := tv.ChecksRun()
	f := hotConflicts(t)
	for _, m := range []Method{MethodNon, MethodBCR, MethodBPC, MethodBRC} {
		if _, err := Compile(f.Clone(), Options{File: bankfile.RV2(2), Method: m}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tv.ChecksRun(); got != before {
		t.Errorf("plain compiles ran %d validator checks; CheckNone must be zero-cost", got-before)
	}
	vf := hotConflicts(t)
	if _, err := Compile(vf, Options{File: bankfile.RV2(2), Method: MethodBPC, Check: CheckValidate}); err != nil {
		t.Fatal(err)
	}
	if got := tv.ChecksRun(); got <= before {
		t.Error("enabled mode ran no validator checks; the wiring is dead")
	}
}

// BenchmarkValidate measures the validator's cost on a hot kernel: the
// off case is the zero-cost contract, the on case is the overhead a
// -check validate build pays, phase-boundary verifier included.
func BenchmarkValidate(b *testing.B) {
	f := hotConflicts(b)
	for _, mode := range []struct {
		name  string
		check Check
	}{{"off", CheckNone}, {"on", CheckValidate}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := Options{File: bankfile.RV2(2), Method: MethodBPC, Check: mode.check}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(f.Clone(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
