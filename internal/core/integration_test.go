package core

import (
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/sim"
	"prescount/internal/workload"
)

// TestWorkloadSemanticsPreserved compiles a slice of every workload suite
// under every method and register file and checks, via simulation, that
// allocation (including spilling, scheduling, coalescing and subgroup
// splitting) never changes program behaviour.
func TestWorkloadSemanticsPreserved(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	type cfgCase struct {
		name string
		opts Options
	}
	rvCases := []cfgCase{
		{"rv2-2-non", Options{File: bankfile.RV2(2), Method: MethodNon}},
		{"rv2-2-bcr", Options{File: bankfile.RV2(2), Method: MethodBCR}},
		{"rv2-2-bpc", Options{File: bankfile.RV2(2), Method: MethodBPC}},
		{"rv2-4-bpc", Options{File: bankfile.RV2(4), Method: MethodBPC}},
		{"rv1-8-bpc", Options{File: bankfile.RV1(8), Method: MethodBPC}},
	}
	dsaCases := []cfgCase{
		{"dsa-bpc", Options{File: bankfile.DSA(1024), Method: MethodBPC, Subgroups: true}},
		{"dsa-tight-bpc", Options{File: bankfile.DSA(64), Method: MethodBPC, Subgroups: true}},
		{"dsa-non", Options{File: bankfile.DSA(1024), Method: MethodNon, Subgroups: true}},
	}

	check := func(t *testing.T, p *workload.Program, cases []cfgCase) {
		t.Helper()
		for _, f := range p.Funcs() {
			if !p.IsHot(f.Name) {
				continue
			}
			ref, err := sim.Run(f, sim.Options{MemSize: p.MemSize})
			if err != nil {
				t.Fatalf("%s/%s reference run: %v", p.Name, f.Name, err)
			}
			for _, c := range cases {
				// The whole corpus compiles under the phase-boundary
				// verifier; a rule firing on any workload fails the suite.
				c.opts.Check = CheckPhases
				res, err := Compile(f, c.opts)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", p.Name, f.Name, c.name, err)
				}
				got, err := sim.Run(res.Func, sim.Options{MemSize: p.MemSize, File: c.opts.File})
				if err != nil {
					t.Fatalf("%s/%s %s allocated run: %v", p.Name, f.Name, c.name, err)
				}
				if got.MemChecksum != ref.MemChecksum {
					t.Errorf("%s/%s %s: allocation changed semantics", p.Name, f.Name, c.name)
				}
			}
		}
	}

	spec := workload.SPECfp()
	// Two SPECfp programs keep the test time reasonable while covering
	// the widest (namd) and densest (povray) generators.
	for _, p := range spec.Programs {
		if p.Category == "444.namd" || p.Category == "470.lbm" {
			p := p
			t.Run(p.Name, func(t *testing.T) { check(t, p, rvCases) })
		}
	}
	cnn := workload.CNN()
	for _, p := range cnn.Programs[:8] {
		p := p
		t.Run(p.Name, func(t *testing.T) { check(t, p, rvCases) })
	}
	for _, p := range workload.DSAOP().Programs {
		p := p
		t.Run(p.Name, func(t *testing.T) { check(t, p, dsaCases) })
	}
}

// TestSpillHeavySemantics forces heavy spilling (tiny file) on wide
// functions and checks semantics survive.
func TestSpillHeavySemantics(t *testing.T) {
	tiny := bankfile.Config{NumRegs: 8, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}
	spec := workload.SPECfp()
	var checked int
	for _, p := range spec.Programs {
		if p.Category != "444.namd" {
			continue
		}
		for _, f := range p.Funcs() {
			res, err := Compile(f, Options{
				File:          tiny,
				Method:        MethodBPC,
				Check:         CheckExec,
				VerifyMemSize: p.MemSize,
			})
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if core := res.Report; core.SpillStores+core.SpillReloads > 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no function spilled under an 8-register file; test is vacuous")
	}
}
