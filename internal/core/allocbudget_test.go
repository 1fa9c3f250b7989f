//go:build !race

package core

import (
	"runtime/debug"
	"testing"

	"prescount/internal/bankfile"
	"prescount/internal/workload"
)

// warmAllocBudget bounds allocations per warm-path compile of the 500-instr
// reference workload. The pre-refactor pipeline spent ~36,700 allocations
// per compile; the pooled/bitset/SoA path with the phase-table loop
// measures ~1,135. The budget is that figure plus 10%: room for toolchain
// drift, but a per-block or per-pass allocation pattern creeping back into
// any phase fails it.
const warmAllocBudget = 1250

// TestCompileWarmAllocBudget is the CI allocation regression gate: once the
// arenas and pools are warm, Compile must stay within warmAllocBudget
// allocations. Excluded under -race (instrumentation skews malloc counts);
// GC is paused during measurement so a mid-run pool flush cannot charge
// re-warming costs to the compile being measured.
func TestCompileWarmAllocBudget(t *testing.T) {
	f := workload.RandomSized(0, 500)
	opts := Options{File: bankfile.RV1(2), Method: MethodBPC}
	for i := 0; i < 3; i++ { // warm pools and arenas
		if _, err := Compile(f, opts); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Compile(f, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > warmAllocBudget {
		t.Fatalf("warm compile averaged %.0f allocs, budget %d: the zero-allocation compile path regressed", avg, warmAllocBudget)
	}
	t.Logf("warm compile: %.0f allocs (budget %d)", avg, warmAllocBudget)
}
