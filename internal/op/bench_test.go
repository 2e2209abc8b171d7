package op

import (
	"math/rand"
	"strings"
	"testing"
)

func benchOps(n int) (*Op, *Op, []rune) {
	r := rand.New(rand.NewSource(1))
	doc := randDoc(r, n)
	return randOp(r, n), randOp(r, n), doc
}

func BenchmarkApplySmall(b *testing.B) {
	a, _, doc := benchOps(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Apply(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyLarge(b *testing.B) {
	a, _, doc := benchOps(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Apply(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformSimplePair(b *testing.B) {
	x, _ := NewInsert(4096, 128, "hello")
	y, _ := NewDelete(4096, 2048, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Transform(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformFragmented(b *testing.B) {
	x, y, _ := benchOps(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Transform(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompose(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randOp(r, 4096)
	y := randOp(r, x.TargetLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compose(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvert(b *testing.B) {
	x, _, doc := benchOps(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := invertRunes(x, doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformIndex(b *testing.B) {
	x, _, _ := benchOps(4096)
	for i := 0; i < b.N; i++ {
		TransformIndex(x, 2048, false)
	}
}

func BenchmarkBuilderTypingPattern(b *testing.B) {
	// A user typing: one retain + one small insert per op.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := New().Retain(1000).Insert("a").Retain(24)
		if o.BaseLen() != 1024 {
			b.Fatal("bad op")
		}
	}
}

func BenchmarkPositionals(b *testing.B) {
	o := New().Retain(10).Delete(5).Retain(strings.Count("x", "x") + 100).Insert("yz").Retain(20)
	for i := 0; i < b.N; i++ {
		if ps := Positionals(o); len(ps) != 2 {
			b.Fatal("unexpected decomposition")
		}
	}
}
