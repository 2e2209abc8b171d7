//go:build unix

package repro

import "syscall"

// raiseTestNoFile lifts RLIMIT_NOFILE toward want before the TCP capacity
// benchmark dials its fleet: soft → hard, and a best-effort hard-limit raise
// for privileged runs. Failures are fine —
// the bench just runs at whatever budget the shell grants.
func raiseTestNoFile(want uint64) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return
	}
	if rl.Max < want {
		try := rl
		try.Cur, try.Max = want, want
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &try); err == nil {
			rl = try
		}
	}
	if rl.Cur < rl.Max {
		rl.Cur = rl.Max
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
}
