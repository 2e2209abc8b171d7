//go:build linux

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// spinLifetime ends a spinner whose parent could not stop it; no run of the
// benchmark lasts this long.
const spinLifetime = 15 * time.Minute

// cpuMask is a sched_{get,set}affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// keepAwake starts one spinner process per CPU this process may run on, each
// pinned to its CPU and scheduled SCHED_IDLE, and returns their process ids and a
// function that stops them and waits for them.
//
// This box is a 2-vCPU virtual machine. A vCPU with nothing to run halts, and
// what waking it costs is the host's business: for minutes at a time every
// wake-up takes tens of microseconds longer, and with it every hand-off of the
// program (pingpong's p50 reads 76 µs in one state of the host and 105 µs in
// the other; fanout loses a quarter of its throughput). A SCHED_IDLE task runs
// only when its CPU would otherwise be idle and is preempted the moment
// anything else wakes there, so the spinners take nothing from the program;
// they only keep the vCPUs from halting, as booting with idle=poll would. With
// them, back-to-back runs stay in the fast state. Their CPU time is not the
// benchmark's: cpu_us_per_op reads RUSAGE_SELF.
func keepAwake() (pids []int, stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return nil, nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var procs []*exec.Cmd
	stop = func() {
		for _, c := range procs {
			_ = c.Process.Kill()
			_ = c.Wait() // reports the kill
		}
	}
	for cpu := 0; cpu < 64*len(allowed); cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		c := exec.Command(exe)
		c.Env = append(os.Environ(), fmt.Sprintf("%s=%d,%d", idleEnv, cpu, os.Getpid()), "GOMAXPROCS=1")
		c.Stderr = os.Stderr
		out, err := c.StdoutPipe()
		if err == nil {
			err = c.Start()
		}
		if err != nil {
			stop()
			return nil, nil, err
		}
		procs = append(procs, c)
		// The spinner writes one byte once it is pinned and spinning.
		if _, err := io.ReadFull(out, make([]byte, 1)); err != nil {
			stop()
			return nil, nil, fmt.Errorf("idle spinner for cpu %d did not start: %w", cpu, err)
		}
	}
	for _, c := range procs {
		pids = append(pids, c.Process.Pid)
	}
	return pids, stop, nil
}

// spinSink keeps the compiler from deleting the spin loop.
var spinSink int

// spinIdle is the spinner process, given "cpu,parent pid": it pins itself to
// the CPU, drops to SCHED_IDLE and spins until the parent is gone or
// spinLifetime has passed.
func spinIdle(arg string) error {
	var cpu, parent int
	if _, err := fmt.Sscanf(arg, "%d,%d", &cpu, &parent); err != nil {
		return fmt.Errorf("%s=%q: %w", idleEnv, arg, err)
	}
	runtime.LockOSThread()
	var mask cpuMask
	if cpu < 0 || cpu >= 64*len(mask) {
		return fmt.Errorf("cpu %d out of range", cpu)
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, e)
	}
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
	}
	if _, err := os.Stdout.Write([]byte{'.'}); err != nil {
		return err
	}
	deadline := time.Now().Add(spinLifetime)
	for os.Getppid() == parent && time.Now().Before(deadline) {
		for i := 0; i < 1<<22; i++ { // a few milliseconds between the checks
			spinSink++
		}
	}
	return nil
}
