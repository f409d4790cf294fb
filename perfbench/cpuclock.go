package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// cpuClock is a Linux CPU-time clock: the time the kernel ran a process's
// threads. It does not advance while the process waits, while other
// processes run, or while the hypervisor holds the CPU (steal time), so
// figures timed with it move with the program's own work and much less
// with what else shares the host. It still moves with the speed the CPU
// runs at.
type cpuClock int32

// processCPU is CLOCK_PROCESS_CPUTIME_ID: every thread of this process,
// the Go runtime's garbage collector and any worker goroutines included.
const processCPU cpuClock = 2

// processCPUOf is the process CPU clock of another process, as
// clock_getcpuclockid(3) makes it: (^pid)<<3 | CPUCLOCK_SCHED.
func processCPUOf(pid int) cpuClock { return cpuClock(int32(^pid)<<3 | 2) }

// now reads the clock in nanoseconds.
func (c cpuClock) now() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(c), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// The clocks are fixed and the process is alive: a failure here is
		// a benchmark bug, not a measurement.
		panic(fmt.Sprintf("clock_gettime(%d): %v", int32(c), errno))
	}
	return ts.Nano()
}
