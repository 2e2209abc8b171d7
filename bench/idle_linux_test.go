//go:build linux

package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"
)

// The spinners must be SCHED_IDLE, one per CPU, each on its own CPU: a spinner
// left at normal priority would take half of every CPU from the program.
func TestIdleSpinners(t *testing.T) {
	pids, stop, err := keepAwake()
	if err != nil {
		t.Fatal(err)
	}
	if len(pids) == 0 {
		t.Fatal("no spinner started")
	}
	cpus := map[string]bool{}
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			t.Fatal(err)
		}
		// Fields after the parenthesised command name; 39 is the CPU last
		// run on, 41 the scheduling policy (proc(5)).
		f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
		if policy := f[41-3]; policy != "5" {
			t.Errorf("spinner %d has scheduling policy %s, want 5 (SCHED_IDLE)", pid, policy)
		}
		cpus[f[39-3]] = true
	}
	if len(cpus) != len(pids) {
		t.Errorf("%d spinners on %d CPUs", len(pids), len(cpus))
	}
	stop()
	if _, err := syscall.Wait4(-1, nil, syscall.WNOHANG, nil); err != syscall.ECHILD {
		t.Errorf("children left after stop: %v", err)
	}
}
