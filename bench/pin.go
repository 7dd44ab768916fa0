package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The harness and everything it spawns run on one CPU.
//
// On the reference box the second vCPU is not a second processor one can
// count on: for sessions of ten minutes and more a thread woken on it
// arrives milliseconds late, so the daemon's two SearchBatch workers run
// one after the other (read_batch 4900 queries/s, flat), and in other
// sessions they overlap partly (5000–6900, changing from one segment to
// the next) — at identical CPU time per query and an unchanged speed
// reference. A closed loop with one client needs no second CPU; bound to
// one, client and daemon take turns and the numbers stop depending on
// how the host schedules the other. What is given up is the parallel
// speed-up of one batch request, which this box cannot express.

// pinnedEnv marks a process image that already runs bound, and carries
// the number of CPUs the machine offered before.
const pinnedEnv = "EHNA_BENCH_HOST_CPUS"

// cpuMask is a kernel cpu_set_t: 1024 bits.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU binds the calling thread to the highest-numbered CPU it
// may run on (the lowest takes the guest's interrupts) and re-executes
// the program from it, so that every thread of the new image, and every
// child, inherits the binding. It returns only on the re-executed side
// or on error.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	var allowed cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &allowed); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpus, last := 0, -1
	for i := 0; i < 64*len(allowed); i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpus++
			last = i
		}
	}
	if last < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	var one cpuMask
	one[last/64] = 1 << (last % 64)
	if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpus))
	return syscall.Exec(self, os.Args, env)
}

// hostCPUs is the number of CPUs the machine offered before the harness
// bound itself to one.
func hostCPUs() int {
	if n, err := strconv.Atoi(os.Getenv(pinnedEnv)); err == nil {
		return n
	}
	return runtime.NumCPU()
}
