package core

import (
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/ir"
	"prescount/internal/verify"
)

// TestVerifyEachAllMethods compiles representative kernels under the
// phase-boundary verifier across every method, the linear-scan allocator
// and the DSA subgroup path: a clean pipeline must never trip a rule.
func TestVerifyEachAllMethods(t *testing.T) {
	f := hotConflicts(t)
	for _, m := range []Method{MethodNon, MethodBCR, MethodBPC, MethodBRC} {
		if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: m, Check: CheckPhases}); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC, LinearScan: true, Check: CheckPhases}); err != nil {
		t.Errorf("linear scan: %v", err)
	}
	// Heavy spilling keeps the spill-pairing and use-before-def rules honest.
	tiny := bankfile.Config{NumRegs: 4, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}
	if _, err := Compile(f, Options{File: tiny, Method: MethodBPC, Check: CheckPhases}); err != nil {
		t.Errorf("tiny file: %v", err)
	}
	d := dsaKernel(t)
	if _, err := Compile(d, Options{File: bankfile.DSA(64), Method: MethodBPC, Subgroups: true, Check: CheckPhases}); err != nil {
		t.Errorf("dsa: %v", err)
	}
}

// TestVerifyEachBypassesCache pins the cache interaction: a verified
// compile must actually run (never return a cached Result), yet produce
// byte-identical output to the cached path.
func TestVerifyEachBypassesCache(t *testing.T) {
	f := hotConflicts(t)
	cache := compilecache.New()
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC, Cache: cache}
	r1, err := Compile(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Check = CheckPhases
	r2, err := Compile(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Error("verified compile returned the shared cached Result")
	}
	if ir.Print(r1.Func) != ir.Print(r2.Func) {
		t.Error("verified compile diverged from the cached pipeline")
	}
}

// TestVerifyEachZeroCostWhenDisabled is the disabled-mode contract: a
// compile at CheckNone must execute zero verifier entry points.
func TestVerifyEachZeroCostWhenDisabled(t *testing.T) {
	f := hotConflicts(t)
	// Warm-up compile so lazy one-time initialization cannot confound the
	// counter comparison below.
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC}); err != nil {
		t.Fatal(err)
	}
	before := verify.ChecksRun()
	for _, m := range []Method{MethodNon, MethodBCR, MethodBPC, MethodBRC} {
		if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: m}); err != nil {
			t.Fatal(err)
		}
	}
	if got := verify.ChecksRun(); got != before {
		t.Errorf("disabled mode ran %d verifier checks, want 0", got-before)
	}
	if _, err := Compile(f, Options{File: bankfile.RV2(2), Method: MethodBPC, Check: CheckPhases}); err != nil {
		t.Fatal(err)
	}
	if got := verify.ChecksRun(); got <= before {
		t.Error("enabled mode ran no verifier checks; the wiring is dead")
	}
}

// BenchmarkVerifyEach measures the verifier's cost: the off case is the
// zero-cost contract (no verify work on the hot path — see
// TestVerifyEachZeroCostWhenDisabled for the exact assertion), the on case
// is the overhead a -check phases build pays. CI runs this with
// -benchtime=1x as a smoke test; benchtab -sizes reports the same ratio at
// scale.
func BenchmarkVerifyEach(b *testing.B) {
	f := hotConflicts(b)
	for _, mode := range []struct {
		name  string
		check Check
	}{{"off", CheckNone}, {"on", CheckPhases}} {
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
