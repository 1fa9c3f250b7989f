package phaseorder_test

import (
	"strings"
	"testing"

	"prescount/tools/lint/linttest"
	"prescount/tools/lint/phaseorder"
)

// header imports every phase package the fixtures touch. The blank uses keep
// fixtures that call only a subset compiling.
const header = `package fixture
import (
	"prescount/internal/coalesce"
	"prescount/internal/sdg"
	"prescount/internal/sched"
	"prescount/internal/assign"
	"prescount/internal/regalloc"
	"prescount/internal/renumber"
	"prescount/internal/conflict"
)
var _ = coalesce.Run
var _ = sdg.Split
var _ = sched.Run
var _ = assign.PresCount
var _ = regalloc.Run
var _ = renumber.Run
var _ = conflict.Analyze
`

// TestPhaseOrder drives the analyzer over fixture pipelines. The
// out-of-order fixtures double as the CI self-test seed.
func TestPhaseOrder(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // substring each finding must contain, in order
	}{
		{
			name: "figure4-order-clean",
			src: `func pipeline(f any) {
	coalesce.Run(f)
	sdg.Split(f)
	sched.Run(f)
	assign.PresCount(f)
	regalloc.Run(f)
	renumber.Run(f)
	conflict.Analyze(f)
}`,
		},
		{
			name: "skipping-phases-clean",
			src: `func pipeline(f any) {
	coalesce.RunCached(f)
	sched.Run(f)
	regalloc.RunLinearScan(f)
	conflict.AnalyzeWith(f)
}`,
		},
		{
			name: "sched-after-regalloc-flagged",
			src: `func pipeline(f any) {
	regalloc.Run(f)
	sched.Run(f)
}`,
			want: []string{"sched.Run"},
		},
		{
			name: "coalesce-after-split-flagged",
			src: `func pipeline(f any) {
	sdg.Split(f)
	coalesce.Run(f)
}`,
			want: []string{"coalesce.Run"},
		},
		{
			name: "two-inversions-two-findings",
			src: `func pipeline(f any) {
	conflict.Analyze(f)
	regalloc.Run(f)
	sched.Run(f)
}`,
			want: []string{"regalloc.Run", "sched.Run"},
		},
		{
			name: "same-rank-repeat-clean",
			src: `func pipeline(f any) {
	regalloc.Run(f)
	regalloc.RunLinearScan(f)
}`,
		},
		{
			// Function literals run on their own schedule; a fresh pipeline
			// inside one is not an inversion of the enclosing body.
			name: "nested-funclit-separate-body",
			src: `func pipeline(f any) {
	regalloc.Run(f)
	redo := func() {
		coalesce.Run(f)
		sched.Run(f)
	}
	redo()
	conflict.Analyze(f)
}`,
		},
		{
			// A phase table's rows run in element order: listing sched
			// after regalloc is an inversion across two function literals.
			name: "phase-table-sched-after-regalloc-flagged",
			src: `type phase struct {
	name string
	run  func(f any)
}
var table = []phase{
	{name: "regalloc", run: func(f any) { regalloc.Run(f) }},
	{name: "sched", run: func(f any) { sched.Run(f) }},
}`,
			want: []string{"sched.Run"},
		},
		{
			// The shape of internal/core's pipeline table: optional
			// phases, check brackets, allocator selection and the
			// end-to-end checks, all in Figure-4 order.
			name: "phase-table-figure4-order-clean",
			src: `type phase struct {
	name    string
	enabled func(o any) bool
	run     func(f any) error
	before  func(f any) error
	after   func(f any) error
}
var pipeline = []phase{
	{name: "coalesce", enabled: func(o any) bool { return true }, run: func(f any) error { coalesce.RunCached(f); return nil }},
	{name: "sdg-split", run: func(f any) error { sdg.Split(f); return nil }},
	{name: "sched", run: func(f any) error { sched.Run(f); return nil }},
	{name: "bank-assign", run: func(f any) error { assign.PresCount(f); return nil }},
	{
		name: "regalloc",
		run: func(f any) error {
			sdg.Build(f)
			if f == nil {
				regalloc.RunLinearScan(f)
			}
			regalloc.Run(f)
			return nil
		},
		before: func(f any) error { return nil },
		after:  func(f any) error { return nil },
	},
	{name: "renumber", run: func(f any) error { renumber.Run(f); return nil }},
	{name: "conflict-analysis", run: func(f any) error { conflict.AnalyzeWith(f); return nil }},
	{name: "validate", run: func(f any) error { return nil }},
}`,
		},
		{
			// An inversion inside one row is that literal's own finding,
			// reported once, not again by the table scan.
			name: "phase-table-inversion-within-row-reported-once",
			src: `var table = []struct{ run func(f any) }{
	{run: func(f any) { coalesce.Run(f) }},
	{run: func(f any) { regalloc.Run(f); sched.Run(f) }},
}`,
			want: []string{"sched.Run"},
		},
		{
			// A local table of test cases runs each row on its own: its
			// rows are separate bodies, not one pipeline.
			name: "local-case-table-separate-bodies",
			src: `func cases(f any) {
	for _, c := range []struct{ run func() }{
		{run: func() { conflict.Analyze(f) }},
		{run: func() { coalesce.Run(f); sched.Run(f) }},
	} {
		c.run()
	}
}`,
		},
		{
			// A map literal has no row order.
			name: "package-level-map-unordered-clean",
			src: `var byName = map[string]func(f any){
	"regalloc": func(f any) { regalloc.Run(f) },
	"sched":    func(f any) { sched.Run(f) },
}`,
		},
		{
			// sdg.Build is a query, not a phase: legal at any point.
			name: "unranked-query-clean",
			src: `func pipeline(f any) {
	conflict.Analyze(f)
	sdg.Build(f)
}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := linttest.Check(t, phaseorder.Analyzer, "prescount/fixture", "fixture.go", header+tc.src)
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d findings, want %d: %v", len(diags), len(tc.want), diags)
			}
			for i, sub := range tc.want {
				if !strings.Contains(diags[i].Message, sub) {
					t.Errorf("finding %d = %q, want mention of %q", i, diags[i].Message, sub)
				}
			}
		})
	}
}
