package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The sandbox is a microVM, and an idle virtual CPU is a halted one:
// every request that finds the daemon's CPU idle pays for the host to
// schedule that vCPU again, which costs as much as serving the request
// and varies from second to second with the host's other guests. With
// lifecycle_mix that exit-and-wake path made up 40 % of the daemon's CPU
// time per operation and moved the latency median between 0.17 and
// 0.25 ms on identical code. So while opbench measures, a child process
// keeps one thread spinning on every CPU under SCHED_IDLE, the class
// the kernel runs only when nothing else wants the CPU and preempts the
// moment anything does: the vCPUs never halt, wake-ups stay inside the
// guest, and the daemon still gets every cycle it asks for. The
// benchmark then measures the daemon, not the hypervisor's wake-up
// path. The spinners are a child process, not goroutines of the
// generator, so that a starved spinner can never hold up the
// generator's garbage collector.

// Linux scheduling-policy number of SCHED_IDLE (sched.h); package
// syscall does not export it.
const schedIdle = 5

// startSpinners re-executes opbench with -spin and waits until every
// spinner thread is in place. stop kills the child and waits for it.
func startSpinners() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating opbench for the idle spinners: %w", err)
	}
	cmd := exec.Command(self, "-spin")
	cmd.Stderr = os.Stderr
	// The child spins until its standard input closes, so it ends with
	// opbench even when opbench is killed outright.
	hold, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("starting idle spinners: %w", err)
	}
	ready, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("starting idle spinners: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting idle spinners: %w", err)
	}
	stop = func() {
		hold.Close()
		_ = cmd.Process.Kill() // already-exited is fine
		_ = cmd.Wait()         // "signal: killed" is the point
	}
	if line, err := bufio.NewReader(ready).ReadString('\n'); err != nil {
		stop()
		return nil, fmt.Errorf("idle spinners did not come up (read %q): %w", line, err)
	}
	return stop, nil
}

// spinMain is the child: one SCHED_IDLE thread pinned to each CPU the
// process may run on, spinning until standard input closes.
func spinMain() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	// One P more than there are spinners, so the goroutine watching
	// standard input never waits for one of them to be preempted.
	runtime.GOMAXPROCS(len(cpus) + 1)
	up := make(chan error, len(cpus))
	for _, cpu := range cpus {
		go func() {
			runtime.LockOSThread()
			if err := idleOn(cpu); err != nil {
				up <- err
				return
			}
			up <- nil
			for {
			}
		}()
	}
	for range cpus {
		if err := <-up; err != nil {
			return err
		}
	}
	fmt.Println("spinning on", len(cpus), "cpus")
	_, err = io.Copy(io.Discard, os.Stdin)
	return err
}

// cpuSet is the kernel's CPU affinity mask, room for 1024 CPUs.
type cpuSet [16]uint64

// allowedCPUs lists the CPUs the process's affinity mask permits.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < 64*len(set); i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return nil, errors.New("sched_getaffinity: empty CPU mask")
	}
	return cpus, nil
}

// idleOn pins the calling thread to one CPU and moves it to SCHED_IDLE.
// Neither call needs a privilege: a thread may always narrow its own
// affinity and lower its own scheduling class.
func idleOn(cpu int) error {
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	var priority int32 // sched_param; must be 0 for SCHED_IDLE
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	return nil
}
