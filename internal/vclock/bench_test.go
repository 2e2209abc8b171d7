package vclock

import "testing"

func BenchmarkFZReconstruct(b *testing.B) {
	const n = 8
	log := NewFZLog(n)
	procs := make([]*FZProcess, n)
	for i := range procs {
		procs[i] = NewFZProcess(i, n, log)
	}
	var last EventID
	for i := 0; i < 2000; i++ {
		from := i % n
		to := (i + 1) % n
		id := procs[from].Send()
		procs[to].Recv(id)
		last = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh memo each iteration to measure the reconstruction cost the
		// paper's introduction calls prohibitive for online use.
		log.memo = make(map[EventID]VC)
		if vt := log.VectorTime(last); vt[0] == 0 && vt[1] == 0 {
			b.Fatal("empty reconstruction")
		}
	}
}
