//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID of clock_gettime(2).
const clockThreadCPUTime = 3

// threadCPU is the CPU time the calling OS thread has run; the caller
// must hold runtime.LockOSThread across the interval it measures.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("bench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
