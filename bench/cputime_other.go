//go:build !linux

package main

import "time"

var clockStart = time.Now()

// threadCPU falls back to wall time where clock_gettime's per-thread
// clock is not available, so the speed probe also counts what else the
// host runs.
func threadCPU() time.Duration { return time.Since(clockStart) }
