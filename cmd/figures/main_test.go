package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// figuresOutput runs the command in-process and returns what it printed.
func figuresOutput(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("figures %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// lineDiff lists the lines where the committed and regenerated text differ.
func lineDiff(committed, regenerated string) string {
	c, r := strings.Split(committed, "\n"), strings.Split(regenerated, "\n")
	var b strings.Builder
	for i := 0; i < max(len(c), len(r)); i++ {
		var cl, rl string
		if i < len(c) {
			cl = c[i]
		}
		if i < len(r) {
			rl = r[i]
		}
		if cl != rl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, cl, rl)
		}
	}
	return b.String()
}

// TestCommittedTables regenerates every count table through the command and
// requires EXPERIMENTS.md to carry it, markers included, byte for byte: the
// document cannot drift from the algorithm it reports on.
func TestCommittedTables(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			t.Parallel()
			regenerated := figuresOutput(t, "-exp", e.id)
			open, end := e.markers()
			from := bytes.Index(doc, []byte(open))
			to := bytes.Index(doc, []byte(end))
			if from < 0 || to < from {
				t.Fatalf("EXPERIMENTS.md has no block between %sand %s", open, end)
			}
			committed := string(doc[from : to+len(end)])
			if committed != regenerated {
				t.Errorf("EXPERIMENTS.md block figures:%s is stale (- committed, + regenerated):\n%srefresh: replace the block, markers included, with the output of\n  go run ./cmd/figures -exp %s",
					e.id, lineDiff(committed, regenerated), e.id)
			}
		})
	}
}

// TestNarrationGoldens pins what -fig 2 and -fig 3 print
// (TestFigure3Walkthrough asserts the values; this asserts the command).
func TestNarrationGoldens(t *testing.T) {
	for _, fig := range []string{"2", "3"} {
		golden := "testdata/fig" + fig + ".golden"
		committed, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if regenerated := figuresOutput(t, "-fig", fig); string(committed) != regenerated {
			t.Errorf("%s is stale (- committed, + regenerated):\n%srefresh:\n  go run ./cmd/figures -fig %s > cmd/figures/%s",
				golden, lineDiff(string(committed), regenerated), fig, golden)
		}
	}
}

// TestUsageErrors: an unknown id, or no id at all, exits 2, and an unknown
// id's message lists the valid ones.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "e7"}, "e3, e4, e5, e6, e8, e9, e10, all"},
		{[]string{"-fig", "4"}, "2, 3"},
		{nil, "Usage"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("figures %v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("figures %v: stderr %q (want it to contain %q), stdout %q (want none)", c.args, stderr.String(), c.want, stdout.String())
		}
	}
}
