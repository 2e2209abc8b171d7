package repro

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestGateTimeouts: every `go test` the gate scripts and the Makefile run
// carries an explicit -timeout below go test's 10-minute default. A test
// binary whose parent was killed (a tool timeout, ^C on make) then still ends
// by its own alarm instead of running on as an orphaned <pkg>.test.
func TestGateTimeouts(t *testing.T) {
	// `go test` as the command itself, after any VAR=value prefixes or exec —
	// not inside a step title or a comment.
	goTest := regexp.MustCompile(`^(exec\s+|\w+=\S+\s+)*(go|\$\(GO\)) test\b`)
	timeout := regexp.MustCompile(`-timeout[= ](\S+)`)
	for _, file := range []string{"scripts/check.sh", "scripts/race.sh", "Makefile"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// A command continued with a backslash is one line.
		joined := strings.ReplaceAll(string(src), "\\\n", " ")
		found := 0
		for _, line := range strings.Split(joined, "\n") {
			line = strings.TrimSpace(line)
			if !goTest.MatchString(line) {
				continue
			}
			found++
			m := timeout.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("%s: no -timeout on: %s", file, line)
				continue
			}
			if d, err := time.ParseDuration(m[1]); err != nil || d <= 0 || d >= 10*time.Minute {
				t.Errorf("%s: -timeout %s is not a duration in (0, 10m): %s", file, m[1], line)
			}
		}
		if found == 0 {
			t.Errorf("%s: found no go test invocation; has the file moved on from this test?", file)
		}
	}
}
