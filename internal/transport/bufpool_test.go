package transport

import (
	"sync"
	"testing"
)

// TestBufPoolClasses: GetBuf always returns an empty buffer that fits the
// request and that no other holder shares, from several goroutines at once,
// and a buffer PutBuf files in a class fits every request that class serves
// — including one whose capacity append left between classes.
func TestBufPoolClasses(t *testing.T) {
	sizes := []int{0, 1, 4 << 10, 4<<10 + 1, 12 << 10, 64 << 10, 64<<10 + 1, 1 << 20}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for _, n := range sizes {
					pb := GetBuf(n)
					if len(pb.B) != 0 || cap(pb.B) < n {
						t.Errorf("GetBuf(%d): len %d cap %d", n, len(pb.B), cap(pb.B))
						return
					}
					for i := 0; i < n; i++ {
						pb.B = append(pb.B, id)
					}
					for i, c := range pb.B {
						if c != id {
							t.Errorf("GetBuf(%d): byte %d overwritten by holder %d", n, i, c)
							return
						}
					}
					PutBuf(pb)
				}
			}
		}(byte(g + 1))
	}
	wg.Wait()

	for _, tc := range []struct{ n, class int }{
		{0, 0}, {4 << 10, 0}, {4<<10 + 1, 1}, {8 << 10, 1}, {32 << 10, 3}, {64 << 10, 4}, {64<<10 + 1, 5},
	} {
		if c := bufClass(tc.n); c != tc.class {
			t.Fatalf("bufClass(%d) = %d, want %d", tc.n, c, tc.class)
		}
	}
	// A 12 KiB buffer goes to the 8 KiB class, whose requests it satisfies.
	PutBuf(&Buf{B: make([]byte, 0, 12<<10)})
	for i := 0; i < 8; i++ {
		if pb := GetBuf(8 << 10); cap(pb.B) < 8<<10 {
			t.Fatalf("8 KiB class served a %d-byte buffer", cap(pb.B))
		}
	}
}
