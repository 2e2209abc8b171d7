package stats

import (
	"math"
	"strings"
	"testing"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample must read as zeros")
	}
}

func TestSampleSummaries(t *testing.T) {
	var s Sample
	for _, x := range []float64{4, 2, 8, 6} {
		s.Add(x)
	}
	if s.N() != 4 || s.Sum() != 20 || s.Mean() != 5 {
		t.Fatalf("n=%d sum=%f mean=%f", s.N(), s.Sum(), s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("min=%f max=%f", s.Min(), s.Max())
	}
	if want := math.Sqrt(5); math.Abs(s.Stddev()-want) > 1e-9 {
		t.Fatalf("stddev %f want %f", s.Stddev(), want)
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.AddInt(i)
	}
	cases := map[float64]float64{0: 1, 1: 1, 50: 50, 99: 99, 100: 100}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Fatalf("p%.0f = %f want %f", p, got, want)
		}
	}
	if s.Median() != 50 {
		t.Fatalf("median %f", s.Median())
	}
}

func TestPercentileAfterMoreAdds(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Percentile(50) // forces a sort
	s.Add(1)             // invalidates it
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("sort invalidation: p0 = %f", got)
	}
}

func TestSampleString(t *testing.T) {
	var s Sample
	s.Add(1)
	if !strings.Contains(s.String(), "n=1") {
		t.Fatalf("summary: %s", s.String())
	}
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.Header("N", "bytes")
	tb.Row(2, 4.5)
	tb.Row(1024, 17)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+rule+2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "N") || !strings.Contains(lines[0], "bytes") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatalf("rule: %q", lines[1])
	}
	if !strings.Contains(lines[2], "4.50") {
		t.Fatalf("float formatting: %q", lines[2])
	}
	wantMD := "| N    | bytes |\n| ---- | ----- |\n| 2    | 4.50  |\n| 1024 | 17    |\n"
	if got := tb.Markdown(); got != wantMD {
		t.Fatalf("markdown:\n%s\nwant:\n%s", got, wantMD)
	}
	var empty Table
	if empty.String() != "" || empty.Markdown() != "" {
		t.Fatal("empty table must render empty")
	}
}
