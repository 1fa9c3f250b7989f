package core

import (
	"reflect"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// compareResults fails the test unless the two results are byte- and
// value-identical: same allocated code, same conflict report, same phase
// statistics.
func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if g, w := ir.Print(got.Func), ir.Print(want.Func); g != w {
		t.Fatalf("%s: allocated code differs\n--- cached ---\n%s\n--- uncached ---\n%s", label, g, w)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("%s: conflict report differs: %+v vs %+v", label, got.Report, want.Report)
	}
	if !reflect.DeepEqual(got.Alloc, want.Alloc) {
		t.Fatalf("%s: alloc stats differ: %+v vs %+v", label, got.Alloc, want.Alloc)
	}
	if got.Coalesce != want.Coalesce || got.SDG != want.SDG || got.Sched != want.Sched ||
		got.BankAssignForced != want.BankAssignForced || got.Renumber != want.Renumber {
		t.Fatalf("%s: phase stats differ: %+v vs %+v", label, got, want)
	}
}

// TestCompileCachedMatchesUncached pins the cache's correctness contract:
// for every method and several register files, a cached compile (cold and
// warm, including the prefix-reuse path across methods) is identical to an
// uncached one.
func TestCompileCachedMatchesUncached(t *testing.T) {
	funcs := []*ir.Func{
		workload.RandomSized(1, 60),
		workload.RandomSized(2, 200),
	}
	files := []bankfile.Config{bankfile.RV2(2), bankfile.RV2(4), bankfile.RV1(8)}
	for _, f := range funcs {
		// One shared cache across every (file, method) point, like a sweep:
		// later points exercise prefix reuse, repeated points full dedup.
		cache := compilecache.New()
		for _, file := range files {
			for _, m := range []Method{MethodNon, MethodBCR, MethodBRC, MethodBPC} {
				opts := Options{File: file, Method: m}
				want, err := Compile(f, opts)
				if err != nil {
					t.Fatalf("uncached %v/%v: %v", file, m, err)
				}
				opts.Cache = cache
				cold, err := Compile(f, opts)
				if err != nil {
					t.Fatalf("cached cold %v/%v: %v", file, m, err)
				}
				compareResults(t, file.String()+"/"+m.String()+" cold", cold, want)
				warm, err := Compile(f, opts)
				if err != nil {
					t.Fatalf("cached warm %v/%v: %v", file, m, err)
				}
				compareResults(t, file.String()+"/"+m.String()+" warm", warm, want)
				if warm != cold {
					t.Fatalf("%v/%v: warm compile did not return the shared cached Result", file, m)
				}
			}
		}
		st := cache.Stats()
		// 3 files × 4 methods compiled twice: 12 misses + 12 warm hits on
		// the full layer; one single prefix for all 12 points.
		if st.FullMisses != 12 || st.FullHits != 12 {
			t.Errorf("full layer stats = %+v, want 12 misses / 12 hits", st)
		}
		if st.PrefixMisses != 1 || st.PrefixHits != 11 {
			t.Errorf("prefix layer stats = %+v, want 1 miss / 11 hits", st)
		}
		if st.BytesRetained <= 0 {
			t.Errorf("BytesRetained = %d, want > 0", st.BytesRetained)
		}
	}
}

// TestCompileCachedSubgroups covers the DSA path (subgroup splitting in the
// prefix, displacement hints in the suffix).
func TestCompileCachedSubgroups(t *testing.T) {
	f := workload.RandomSized(3, 80)
	file := bankfile.DSA(64)
	cache := compilecache.New()
	for _, m := range []Method{MethodNon, MethodBPC} {
		opts := Options{File: file, Method: m, Subgroups: true}
		want, err := Compile(f, opts)
		if err != nil {
			t.Fatalf("uncached %v: %v", m, err)
		}
		opts.Cache = cache
		got, err := Compile(f, opts)
		if err != nil {
			t.Fatalf("cached %v: %v", m, err)
		}
		compareResults(t, "dsa/"+m.String(), got, want)
	}
	if st := cache.Stats(); st.PrefixMisses != 1 || st.PrefixHits != 1 {
		t.Errorf("prefix stats = %+v, want one snapshot shared by both methods", st)
	}
}

// TestFullDedupAcrossNames: structurally identical functions under
// different symbol names share one compile; each caller still sees its own
// name on the materialized function.
func TestFullDedupAcrossNames(t *testing.T) {
	a := workload.RandomSized(5, 100)
	b := a.Clone()
	b.Name = "renamed_kernel"
	cache := compilecache.New()
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC, Cache: cache}
	ra, err := Compile(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Compile(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.FullHits != 1 || st.FullMisses != 1 {
		t.Fatalf("stats = %+v, want the second compile to dedup against the first", st)
	}
	if rb.Report != ra.Report {
		t.Error("deduped compile does not share the conflict report")
	}
	if ra.Func.Name != a.Name || rb.Func.Name != "renamed_kernel" {
		t.Errorf("names not rematerialized: %q / %q", ra.Func.Name, rb.Func.Name)
	}
	if ra.Func.Fingerprint() != rb.Func.Fingerprint() {
		t.Error("rematerialized function is not structurally identical to the shared one")
	}
}

// TestCacheDisabledForVerifySemantics: semantic verification must actually
// simulate, so Compile bypasses the cache.
func TestCacheDisabledForVerifySemantics(t *testing.T) {
	f := workload.RandomSized(7, 40)
	cache := compilecache.New()
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC, Cache: cache,
		Check: CheckExec, VerifyMemSize: 1 << 12}
	if _, err := Compile(f, opts); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.FullMisses != 0 && st.FullEntries != 0 {
		t.Errorf("verifying compile touched the cache: %+v", st)
	}
}

// TestDigestSplit pins which options invalidate which layer.
func TestDigestSplit(t *testing.T) {
	base := Options{File: bankfile.RV2(2), Method: MethodNon}
	samePrefix := []Options{
		{File: bankfile.RV2(4), Method: MethodNon},
		{File: bankfile.RV1(8), Method: MethodBPC, THRES: 0.5},
		{File: bankfile.RV2(2), Method: MethodBCR, DisablePressure: true, DisableFreeHints: true},
		{File: bankfile.RV2(2), Method: MethodNon, LinearScan: true},
	}
	for i, o := range samePrefix {
		if o.PrefixDigest() != base.PrefixDigest() {
			t.Errorf("case %d: suffix-only option change altered PrefixDigest", i)
		}
		if o.FullDigest() == base.FullDigest() {
			t.Errorf("case %d: distinct suffix options share a FullDigest", i)
		}
	}
	diffPrefix := []Options{
		{File: bankfile.RV2(2), Method: MethodNon, DisableCoalesce: true},
		{File: bankfile.RV2(2), Method: MethodNon, DisableSched: true},
		{File: bankfile.RV2(2), Method: MethodNon, Subgroups: true},
		{File: bankfile.RV2(2), Method: MethodNon, Subgroups: true, SDGMaxGroup: 3},
	}
	for i, o := range diffPrefix {
		if o.PrefixDigest() == base.PrefixDigest() {
			t.Errorf("case %d: prefix-phase option change did not alter PrefixDigest", i)
		}
		if o.FullDigest() == base.FullDigest() {
			t.Errorf("case %d: prefix-phase option change did not alter FullDigest", i)
		}
	}
	// Options that no phase reads under the rest of the configuration must
	// not split cache entries: SDGMaxGroup is dead without Subgroups, and
	// THRES/DisablePressure/DisableFreeHints reach only the bpc assigner.
	inert := []Options{
		{File: bankfile.RV2(2), Method: MethodNon, SDGMaxGroup: 3},
		{File: bankfile.RV2(2), Method: MethodNon, THRES: 0.5},
		{File: bankfile.RV2(2), Method: MethodNon, DisablePressure: true, DisableFreeHints: true},
	}
	for i, o := range inert {
		if o.PrefixDigest() != base.PrefixDigest() || o.FullDigest() != base.FullDigest() {
			t.Errorf("case %d: dead option split a digest", i)
		}
	}
	// But the same options must key under the configuration that reads them.
	bpc := Options{File: bankfile.RV2(2), Method: MethodBPC}
	bpcThres := bpc
	bpcThres.THRES = 0.5
	if bpcThres.FullDigest() == bpc.FullDigest() {
		t.Error("THRES did not key a bpc compile")
	}
	// AllocDigest excludes the bank count and the method (non and brc share
	// one bank-oblivious allocation) but keys on the register count and the
	// allocator selector.
	non2 := Options{File: bankfile.RV2(2), Method: MethodNon}
	non4 := Options{File: bankfile.RV2(4), Method: MethodNon}
	brc2 := Options{File: bankfile.RV2(2), Method: MethodBRC}
	if non2.AllocDigest() != non4.AllocDigest() {
		t.Error("bank count leaked into AllocDigest")
	}
	if non2.AllocDigest() != brc2.AllocDigest() {
		t.Error("non and brc do not share an AllocDigest")
	}
	rv1 := Options{File: bankfile.RV1(2), Method: MethodNon}
	if non2.AllocDigest() == rv1.AllocDigest() {
		t.Error("register count missing from AllocDigest")
	}
	ls := non2
	ls.LinearScan = true
	if non2.AllocDigest() == ls.AllocDigest() {
		t.Error("allocator selector missing from AllocDigest")
	}
	// Cache machinery and verification knobs must never shift a digest.
	neutral := base
	neutral.Workers = 7
	neutral.Cache = compilecache.New()
	neutral.Check = CheckExec
	neutral.VerifyMemSize = 4096
	if neutral.PrefixDigest() != base.PrefixDigest() || neutral.FullDigest() != base.FullDigest() {
		t.Error("non-semantic options leaked into the digests")
	}
	// Normalized and explicit-default files address the same entry.
	zero := Options{File: bankfile.Config{NumRegs: 32, NumBanks: 2}}
	one := Options{File: bankfile.Config{NumRegs: 32, NumBanks: 2, NumSubgroups: 1, ReadPorts: 1}}
	if zero.FullDigest() != one.FullDigest() {
		t.Error("File normalization not applied before digesting")
	}
}

// TestCompileModuleCached: a module with repeated kernels compiles each
// distinct body once and aggregates identically to the uncached module
// compile.
func TestCompileModuleCached(t *testing.T) {
	m := ir.NewModule("dup")
	base := workload.RandomSized(11, 90)
	for _, name := range []string{"k_a", "k_b", "k_c"} {
		c := base.Clone()
		c.Name = name
		m.Add(c)
	}
	uniq := workload.RandomSized(12, 50)
	uniq.Name = "unique"
	m.Add(uniq)

	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	want, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := compilecache.New()
	opts.Cache = cache
	got, err := CompileModule(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Totals, want.Totals) {
		t.Fatalf("totals differ: %+v vs %+v", got.Totals, want.Totals)
	}
	for name := range want.PerFunc {
		compareResults(t, name, got.PerFunc[name], want.PerFunc[name])
		if got.PerFunc[name].Func.Name != name {
			t.Errorf("PerFunc[%q].Func.Name = %q", name, got.PerFunc[name].Func.Name)
		}
	}
	if st := cache.Stats(); st.FullMisses != 2 {
		t.Errorf("stats = %+v, want exactly 2 distinct compiles (3 repeats deduped)", st)
	}
}
