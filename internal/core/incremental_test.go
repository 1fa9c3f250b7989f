package core

import (
	"strings"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// incModule builds a small module of distinct deterministic kernels.
func incModule(tb testing.TB, n int) *ir.Module {
	tb.Helper()
	m := ir.NewModule("inc")
	for i := 0; i < n; i++ {
		f := workload.RandomSized(int64(100+i), 80)
		f.Name = names(i)
		m.Add(f)
	}
	return m
}

func names(i int) string { return string(rune('a'+i)) + "_kernel" }

// TestModulePriorReuse: a module recompile under an unchanged prior reuses
// every function without compiling, and the result is byte-identical to a
// fresh compile.
func TestModulePriorReuse(t *testing.T) {
	m := incModule(t, 4)
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	first, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Prior == nil {
		t.Fatal("first compile produced no prior")
	}
	if first.ReusedFuncs != 0 || first.CompiledFuncs != 4 {
		t.Fatalf("first compile: reused=%d compiled=%d, want 0/4", first.ReusedFuncs, first.CompiledFuncs)
	}

	opts2 := opts
	opts2.Prior = first.Prior
	second, err := CompileModule(m, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedFuncs != 4 || second.CompiledFuncs != 0 {
		t.Errorf("incremental recompile: reused=%d compiled=%d, want 4/0", second.ReusedFuncs, second.CompiledFuncs)
	}
	if got, want := renderModuleResult(second), renderModuleResult(first); got != want {
		t.Error("prior-reused module result differs from the producing run")
	}
	if second.Prior == nil || second.Prior.Digest != first.Prior.Digest {
		t.Error("incremental run did not hand back a usable prior")
	}
}

// TestModulePriorPartial: editing one function recompiles exactly that
// function; the rest reuse, and the result matches a from-scratch compile
// of the edited module byte for byte.
func TestModulePriorPartial(t *testing.T) {
	m := incModule(t, 4)
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	first, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}

	// "Edit" one function by replacing its body with a different kernel.
	edited := ir.NewModule("inc")
	for i, f := range m.SortedFuncs() {
		c := f.Clone()
		if i == 2 {
			c = workload.RandomSized(999, 90)
			c.Name = f.Name
		}
		edited.Add(c)
	}

	opts2 := opts
	opts2.Prior = first.Prior
	inc, err := CompileModule(edited, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ReusedFuncs != 3 || inc.CompiledFuncs != 1 {
		t.Errorf("edited recompile: reused=%d compiled=%d, want 3/1", inc.ReusedFuncs, inc.CompiledFuncs)
	}
	fresh, err := CompileModule(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderModuleResult(inc), renderModuleResult(fresh); got != want {
		t.Error("incremental result of the edited module differs from a fresh compile")
	}
}

// TestModulePriorDigestMismatch: a prior produced under different options
// is ignored wholesale — nothing reuses, nothing breaks.
func TestModulePriorDigestMismatch(t *testing.T) {
	m := incModule(t, 3)
	first, err := CompileModule(m, Options{File: bankfile.RV2(2), Method: MethodBPC})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{File: bankfile.RV2(4), Method: MethodBPC, Prior: first.Prior}
	second, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedFuncs != 0 || second.CompiledFuncs != 3 {
		t.Errorf("mismatched prior: reused=%d compiled=%d, want 0/3", second.ReusedFuncs, second.CompiledFuncs)
	}
	freshOpts := opts
	freshOpts.Prior = nil
	fresh, err := CompileModule(m, freshOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderModuleResult(second), renderModuleResult(fresh); got != want {
		t.Error("mismatched-prior result differs from a fresh compile")
	}
}

// TestModulePriorRename: a function renamed but structurally unchanged
// still reuses (fingerprints elide names) and the reused result carries the
// new name everywhere it appears.
func TestModulePriorRename(t *testing.T) {
	m := incModule(t, 2)
	opts := Options{File: bankfile.RV2(2), Method: MethodNon}
	first, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	renamed := ir.NewModule("inc")
	for _, f := range m.SortedFuncs() {
		c := f.Clone()
		c.Name = "renamed_" + f.Name
		renamed.Add(c)
	}
	opts.Prior = first.Prior
	second, err := CompileModule(renamed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.ReusedFuncs != 2 {
		t.Errorf("renamed module reused %d funcs, want 2", second.ReusedFuncs)
	}
	for name, r := range second.PerFunc {
		if r.Func.Name != name {
			t.Errorf("result for %q carries stale name %q", name, r.Func.Name)
		}
		if !strings.HasPrefix(name, "renamed_") {
			t.Errorf("unexpected result name %q", name)
		}
	}
}

// TestModulePriorVerifyBypass: verification runs ignore the prior (checks
// must actually run) and produce no reuse token.
func TestModulePriorVerifyBypass(t *testing.T) {
	m := incModule(t, 2)
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	first, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prior = first.Prior
	opts.Check = CheckPhases
	verified, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if verified.ReusedFuncs != 0 {
		t.Errorf("verified run reused %d funcs, want 0", verified.ReusedFuncs)
	}
	if verified.Prior != nil {
		t.Error("verified run handed out a prior")
	}
	// The verifier records extra allocator detail (Options.Record), so
	// compare the observable output: allocated code and conflict totals.
	if verified.Totals != first.Totals {
		t.Errorf("verified totals differ: %+v vs %+v", verified.Totals, first.Totals)
	}
	for name, r := range verified.PerFunc {
		if got, want := ir.Print(r.Func), ir.Print(first.PerFunc[name].Func); got != want {
			t.Errorf("verified code for %s differs from the plain compile", name)
		}
	}
}

// TestModulePriorValidateBypass: translation-validated runs ignore the
// prior (the validator must actually see every function compile) and
// produce no reuse token, exactly like CheckPhases.
func TestModulePriorValidateBypass(t *testing.T) {
	m := incModule(t, 2)
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	first, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prior = first.Prior
	opts.Check = CheckValidate
	validated, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if validated.ReusedFuncs != 0 {
		t.Errorf("validated run reused %d funcs, want 0", validated.ReusedFuncs)
	}
	if validated.Prior != nil {
		t.Error("validated run handed out a prior")
	}
	if validated.Totals != first.Totals {
		t.Errorf("validated totals differ: %+v vs %+v", validated.Totals, first.Totals)
	}
}
