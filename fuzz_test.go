package prescount_test

import (
	"errors"
	"testing"

	"prescount"
	"prescount/internal/ir"
	"prescount/internal/verify"
)

// FuzzParseCompile is the daemon's untrusted-input robustness harness: any
// byte string fed through ParseModule (with the bare-function fallback the
// server and prescountc use) and on into Compile must either return an
// error or succeed — it must never panic or hang, because a single bad
// request must not kill prescountd. The compile runs under the
// phase-boundary verifier (check level CheckPhases) as a second oracle: on an
// input that passed well-formedness, a rule diagnostic is a pipeline bug,
// not an input problem, and fails the target. Plain inputs — no physical
// FP registers, no spill pseudo-ops, the only shape the pipeline's
// allocation contract covers — additionally run under the translation
// validator (CheckValidate), so a fuzzed control-flow shape that
// miscompiles surfaces as a T-rule here even when every local V-rule
// holds.
func FuzzParseCompile(f *testing.F) {
	seeds := []string{
		"",
		"func @f {\n entry:\n  ret\n}",
		"func @f {\n entry:\n  %0:fp = fconst 1\n  %1:fp = fadd %0, %0\n  ret\n}",
		"module m\nfunc @a {\n entry:\n  x1 = iconst 0\n  %0:fp = fload x1, 0\n  fstore %0, x1, 1\n  ret\n}\nfunc @b {\n entry:\n  ret\n}",
		"func @loop {\n entry:\n  x1 = iconst 0\n  x2 = iconst 8\n  br body\n body: !trip=8\n  %0:fp = fload x1, 0\n  %1:fp = fmul %0, %0\n  fstore %1, x1, 8\n  x1 = iaddi x1, 1\n  x3 = icmplt x1, x2\n  condbr x3, body, done\n done:\n  ret\n}",
		"func @f {\n entry:\n  %-1:fp = fconst 1\n  ret\n}",
		"func @f {\n entry:\n  f2147483000 = fconst 1\n  ret\n}",
		"func @f {\n entry:\n  %999999999 = fmov %0\n  ret\n}",
		"func @f {\n entry:\n  call\n  ret\n}",
		"func @f {\n entry:\n  %0:fp = fma %1, %2, %3\n  ret\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	opts := prescount.Options{File: prescount.RV2(2), Method: prescount.MethodBPC, Check: prescount.CheckPhases}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := prescount.ParseModule(src)
		if err != nil {
			return
		}
		if len(m.Funcs) == 0 {
			fn, ferr := prescount.Parse(src)
			if ferr != nil {
				return
			}
			m.Add(fn)
		}
		for _, fn := range m.SortedFuncs() {
			wellFormed := fn.Verify() == nil
			fnOpts := opts
			if plainInput(fn) {
				fnOpts.Check = prescount.CheckValidate
			}
			res, cerr := prescount.Compile(fn, fnOpts)
			if cerr != nil {
				var d *prescount.Diag
				if wellFormed && errors.As(cerr, &d) {
					t.Fatalf("verifier rule %s fired compiling well-formed %s: %v", d.Rule, fn.Name, cerr)
				}
				continue // malformed input or resource exhaustion: fine
			}
			if res.Report == nil {
				t.Fatalf("Compile(%s) returned no report and no error", fn.Name)
			}
		}
	})
}

// plainInput reports whether fn is in the shape the allocator's contract
// covers: virtual FP registers only, no pre-existing spill pseudo-ops,
// and no read of a never-written register. Inputs outside that shape
// still must compile or error cleanly, but the translation validator's
// reference model only applies to plain inputs — a program that reads an
// undefined register reads garbage, and the allocator may legally reuse
// that register for something else, so "divergence" there is not a
// miscompile.
func plainInput(fn *prescount.Func) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpFSpill, ir.OpFReload, ir.OpISpill, ir.OpIReload:
				return false
			}
			for _, r := range in.Defs {
				if r.IsFPR() {
					return false
				}
			}
			for _, r := range in.Uses {
				if r.IsFPR() {
					return false
				}
			}
		}
	}
	return len(verify.EntryLive(fn)) == 0
}
