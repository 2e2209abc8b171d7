package doc

import (
	"math/rand"
	"strings"
	"testing"
)

// benchEdits applies mixed random edits to buf, inserting ins (two runes) or
// deleting two runes at a time. The document size is held in
// a steady-state band so per-op cost does not depend on b.N (a growing
// working set would make the benchmark framework's adaptive iteration count
// meaningless).
func benchEdits(bench *testing.B, buf *Rope, ins string) {
	r := rand.New(rand.NewSource(7))
	base := buf.Len()
	lo, hi := base-base/10, base+base/10
	bench.ResetTimer()
	for i := 0; i < bench.N; i++ {
		n := buf.Len()
		pos := 0
		if n > 0 {
			pos = r.Intn(n + 1)
		}
		insert := n == 0 || r.Intn(2) == 0
		if n <= lo {
			insert = true
		} else if n >= hi {
			insert = false
		}
		if insert {
			if err := buf.Insert(pos, ins); err != nil {
				bench.Fatal(err)
			}
		} else {
			if pos >= n-1 {
				pos = n - 2
			}
			if err := buf.Delete(pos, 2); err != nil {
				bench.Fatal(err)
			}
		}
	}
}

func seedText() string { return strings.Repeat("the quick brown fox ", 5000) } // 100k runes

// seedTextMultibyte mixes 1-, 2-, 3- and 4-byte runes: 100k runes, 130k bytes.
func seedTextMultibyte() string { return strings.Repeat("the quick 狐 jumps ü🦊", 5000) }

func BenchmarkRopeRandomEdits(b *testing.B) { benchEdits(b, NewRope(seedText()), "ab") }
func BenchmarkRopeRandomEditsMultibyte(b *testing.B) {
	benchEdits(b, NewRope(seedTextMultibyte()), "é狐")
}

func BenchmarkRopeSlice(b *testing.B) {
	rope := NewRope(seedText())
	n := rope.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rope.Slice(n/3, n/3+100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRopeString(b *testing.B)          { benchString(b, seedText()) }
func BenchmarkRopeStringMultibyte(b *testing.B) { benchString(b, seedTextMultibyte()) }

func benchString(b *testing.B, text string) {
	rope := NewRope(text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rope.String()) == 0 {
			b.Fatal("empty")
		}
	}
}
