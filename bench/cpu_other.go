//go:build !unix

package main

import "time"

// processCPU has no portable source off unix; cpu_us_per_op reads 0 there
// and the benchmark's numbers are only comparable on unix hosts.
func processCPU() time.Duration { return 0 }
