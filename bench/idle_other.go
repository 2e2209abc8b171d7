//go:build !linux

package main

import "errors"

// keepAwake has nothing to do off linux: the idle spinners answer a property
// of the linux virtual machine the benchmark was sized on.
func keepAwake() (pids []int, stop func(), err error) { return nil, func() {}, nil }

func spinIdle(string) error { return errors.New("idle spinners exist on linux only") }
