package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/ir"
	"prescount/internal/workload"
)

// fourFuncModule builds a module of four distinct deterministic kernels.
func fourFuncModule() *ir.Module {
	m := ir.NewModule("reuse")
	for i := 0; i < 4; i++ {
		f := workload.RandomSized(int64(100+i), 80)
		f.Name = string(rune('a'+i)) + "_kernel"
		m.Add(f)
	}
	return m
}

// editModule returns a copy of m with edit applied to each function clone.
func editModule(m *ir.Module, edit func(i int, f *ir.Func) *ir.Func) *ir.Module {
	out := ir.NewModule(m.Name)
	for i, f := range m.SortedFuncs() {
		out.Add(edit(i, f.Clone()))
	}
	return out
}

// renderCode serializes the allocated code and conflict reports of a module
// result (sorted by name) plus its totals. Unlike renderModuleResult it
// leaves out allocator statistics, which checked compiles record in more
// detail without changing the code.
func renderCode(mr *ModuleResult) string {
	names := make([]string, 0, len(mr.PerFunc))
	for n := range mr.PerFunc {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		r := mr.PerFunc[n]
		fmt.Fprintf(&sb, "== %s\n%sreport: %+v\n", n, ir.Print(r.Func), *r.Report)
	}
	fmt.Fprintf(&sb, "totals: %+v\n", mr.Totals)
	return sb.String()
}

// TestModuleRecompileCacheReuse pins the module-recompile behaviour the
// compile cache's full layer provides: after a module is compiled once on
// a cache, recompiling an edited version hits for every unchanged function
// (renames included, since fingerprints elide names), misses for edited
// ones and for other options, and checked compiles bypass the cache. In
// every case the output equals an uncached compile byte for byte.
func TestModuleRecompileCacheReuse(t *testing.T) {
	base := fourFuncModule()
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	cache := compilecache.New()
	tests := []struct {
		name string
		edit func(i int, f *ir.Func) *ir.Func
		opts func(Options) Options
		// wantHits/wantMisses are the full-layer lookups of the recompile;
		// both zero with bypass means no cache layer was consulted at all.
		wantHits, wantMisses int64
		bypass               bool
	}{
		{
			name:     "unchanged",
			wantHits: 4,
		},
		{
			name: "one of four edited",
			edit: func(i int, f *ir.Func) *ir.Func {
				if i == 2 {
					g := workload.RandomSized(999, 90)
					g.Name = f.Name
					return g
				}
				return f
			},
			wantHits: 3, wantMisses: 1,
		},
		{
			name: "renamed",
			edit: func(i int, f *ir.Func) *ir.Func {
				if i == 1 {
					f.Name = "renamed_" + f.Name
				}
				return f
			},
			wantHits: 4,
		},
		{
			name:       "other options digest",
			opts:       func(o Options) Options { o.File = bankfile.RV2(4); return o },
			wantMisses: 4,
		},
		{
			name:   "check phases",
			opts:   func(o Options) Options { o.Check = CheckPhases; return o },
			bypass: true,
		},
		{
			name:   "check validate",
			opts:   func(o Options) Options { o.Check = CheckValidate; return o },
			bypass: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cached := opts
			cached.Cache = cache
			if _, err := CompileModule(base, cached); err != nil {
				t.Fatal(err)
			}
			m := base
			if tc.edit != nil {
				m = editModule(base, tc.edit)
			}
			if tc.opts != nil {
				cached = tc.opts(cached)
			}
			before := cache.Stats()
			got, err := CompileModule(m, cached)
			if err != nil {
				t.Fatal(err)
			}
			d := cache.Stats().Delta(before)
			if d.FullHits != tc.wantHits || d.FullMisses != tc.wantMisses {
				t.Errorf("full layer: %d hits / %d misses, want %d / %d", d.FullHits, d.FullMisses, tc.wantHits, tc.wantMisses)
			}
			if tc.bypass && d.PrefixHits+d.PrefixMisses+d.AllocHits+d.AllocMisses != 0 {
				t.Errorf("checked compile consulted the cache: %+v", d)
			}
			for name, r := range got.PerFunc {
				if r.Func.Name != name {
					t.Errorf("result for %q carries the name %q", name, r.Func.Name)
				}
			}

			uncached := cached
			uncached.Cache = nil
			want, err := CompileModule(m, uncached)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderCode(got), renderCode(want); g != w {
				t.Errorf("cached recompile differs from an uncached compile:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}
