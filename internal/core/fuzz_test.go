package core

import (
	"testing"
	"testing/quick"

	"prescount/internal/bankfile"
	"prescount/internal/workload"
)

// quick-check: any random well-formed function compiles under every method
// and register file, and allocation never changes its observable behaviour
// (memory image after execution).
func TestPipelineSemanticsQuick(t *testing.T) {
	configs := []Options{
		{File: bankfile.RV2(2), Method: MethodNon},
		{File: bankfile.RV2(2), Method: MethodBCR},
		{File: bankfile.RV2(2), Method: MethodBRC},
		{File: bankfile.RV2(2), Method: MethodBPC},
		{File: bankfile.RV2(4), Method: MethodBPC},
		{File: bankfile.RV1(8), Method: MethodBPC},
		{File: bankfile.DSA(1024), Method: MethodBPC, Subgroups: true},
		{File: bankfile.Config{NumRegs: 8, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}, Method: MethodBPC},
		{File: bankfile.RV2(2), Method: MethodBPC, LinearScan: true},
	}
	check := func(seed int64) bool {
		f := workload.Random(seed)
		for _, opts := range configs {
			opts.Check = CheckExec // phase-boundary verifier and tv as further oracles
			opts.VerifyMemSize = 1 << 10
			if _, err := Compile(f, opts); err != nil {
				t.Logf("seed %d, config %+v: %v", seed, opts, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// quick-check: bpc never produces more static conflicts than non on random
// functions over a rich 2-banked file (the headline invariant; ties happen
// when the only conflicts are irreducible fused 3-read FMAs).
func TestBPCNeverWorseQuick(t *testing.T) {
	check := func(seed int64) bool {
		f := workload.Random(seed)
		file := bankfile.RV1(2)
		non, err := Compile(f, Options{File: file, Method: MethodNon})
		if err != nil {
			return false
		}
		bpc, err := Compile(f, Options{File: file, Method: MethodBPC})
		if err != nil {
			return false
		}
		if bpc.Report.StaticConflicts > non.Report.StaticConflicts {
			t.Logf("seed %d: bpc %d > non %d", seed,
				bpc.Report.StaticConflicts, non.Report.StaticConflicts)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
