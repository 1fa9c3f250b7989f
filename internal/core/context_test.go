package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"prescount/internal/bankfile"
	"prescount/internal/compilecache"
	"prescount/internal/ir"
	"prescount/internal/tv"
	"prescount/internal/workload"
)

// TestCompileContextExpiredDeadline pins the daemon's dead-client contract:
// a compile under an already-expired deadline returns promptly with an
// error wrapping context.DeadlineExceeded and leaks no goroutines.
func TestCompileContextExpiredDeadline(t *testing.T) {
	f := workload.RandomSized(7, 400)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	mod := ir.NewModule("ctx")
	mod.Add(f)
	res, err := CompileModuleContext(ctx, mod, Options{File: bankfile.RV2(2), Method: MethodBPC})
	if res != nil || err == nil {
		t.Fatalf("expired deadline: got res=%v err=%v, want nil result and error", res, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("expired-deadline compile took %v, want prompt return", d)
	}

	// The pool must have drained: allow the runtime a few scheduling rounds
	// to retire exiting goroutines before comparing counts.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestCompileContextCancelMidRun cancels between phase boundaries via a
// deadline that expires mid-compile and checks the error classification
// holds on the single-function path too.
func TestCompileContextCancelMidRun(t *testing.T) {
	f := workload.RandomSized(8, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, f, Options{File: bankfile.RV2(4), Method: MethodBPC})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestCancelledCompileNotCached pins the cache interaction: a compile
// cancelled mid-flight must not poison its cache key — the next lookup
// under a live context recomputes and matches an uncached compile.
func TestCancelledCompileNotCached(t *testing.T) {
	f := workload.RandomSized(9, 200)
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC}
	want, err := Compile(f, opts)
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}

	cache := compilecache.New()
	opts.Cache = cache
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileContext(ctx, f, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile: got %v, want context.Canceled", err)
	}
	got, err := CompileContext(context.Background(), f, opts)
	if err != nil {
		t.Fatalf("recompute after cancellation: %v", err)
	}
	compareResults(t, "recompute-after-cancel", got, want)
	if s := cache.Stats(); s.FullEntries != 1 {
		t.Fatalf("cache retained %d full entries, want exactly the recomputed one", s.FullEntries)
	}
}

// countingCtx counts its Err calls and reports a deadline expiry from the
// expireAt-th call on (never, when expireAt is 0).
type countingCtx struct {
	context.Context
	expireAt, calls int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.expireAt > 0 && c.calls >= c.expireAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCancelBeforeValidate pins the cancellation point in front of the
// end-to-end checks: a deadline that expires while the last pipeline phase
// runs must stop the compile before the translation validator starts,
// rather than after the request has paid for it.
func TestCancelBeforeValidate(t *testing.T) {
	f := hotConflicts(t)
	opts := Options{File: bankfile.RV2(2), Method: MethodBPC, Check: CheckValidate}
	probe := &countingCtx{Context: context.Background()}
	if _, err := CompileContext(probe, f, opts); err != nil {
		t.Fatal(err)
	}
	// validate is the last enabled phase, so its cancellation point is the
	// final Err call of a clean compile.
	ctx := &countingCtx{Context: context.Background(), expireAt: probe.calls}
	before := tv.ChecksRun()
	_, err := CompileContext(ctx, f, opts)
	if err == nil || !strings.Contains(err.Error(), "cancelled before validate") {
		t.Fatalf("got %v, want a cancellation before validate", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if got := tv.ChecksRun(); got != before {
		t.Errorf("cancelled compile still ran %d validator checks", got-before)
	}
}
