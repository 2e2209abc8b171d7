package sim

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/op"
)

// Figure2Result replays paper Fig. 2 / §2.2: four sites executing original
// (untransformed) operations in the figure's arrival orders, demonstrating
// divergence and intention violation.
type Figure2Result struct {
	// Orders[i] lists the execution order of operation names at site i.
	Orders map[int][]string
	// Finals[i] is site i's final document.
	Finals map[int]string
	// Diverged reports whether any pair of sites disagrees.
	Diverged bool
	// Site1AfterO1O2 is the §2.2 intention-violation result at site 1
	// ("A1DE" in the paper).
	Site1AfterO1O2 string
	// IntentionPreserved is the correct result OT produces ("A12B").
	IntentionPreserved string
}

// opsFig2 are the concrete operations used for Fig. 2's abstract O1..O4:
// O1 and O2 are the §2.2 pair; O3 and O4 are additional edits that expose
// order-dependence.
func opsFig2() map[string][]op.Positional {
	return map[string][]op.Positional{
		"O1": {{Insert: true, Pos: 1, Text: "12"}},
		"O2": {{Pos: 2, Count: 3}},
		"O3": {{Insert: true, Pos: 0, Text: "*"}},
		"O4": {{Insert: true, Pos: 1, Text: "#"}},
	}
}

// Figure2 runs the scenario and returns the reproduced inconsistencies.
func Figure2() *Figure2Result {
	// Execution orders straight from the figure (§2.2): site 0: O2 O1 O4
	// O3; site 1: O1 O2 O4 O3; site 2: O2 O1 O3 O4; site 3: O2 O4 O1 O3.
	orders := map[int][]string{
		0: {"O2", "O1", "O4", "O3"},
		1: {"O1", "O2", "O4", "O3"},
		2: {"O2", "O1", "O3", "O4"},
		3: {"O2", "O4", "O1", "O3"},
	}
	ops := opsFig2()
	res := &Figure2Result{
		Orders: orders,
		Finals: make(map[int]string),
	}
	for site, order := range orders {
		b := doc.NewRope("ABCDE")
		for _, name := range order {
			doc.ApplyPositional(b, ops[name]...)
		}
		res.Finals[site] = b.String()
	}
	for _, f := range res.Finals {
		if f != res.Finals[0] {
			res.Diverged = true
		}
	}

	// §2.2's intention-violation pair in isolation.
	b := doc.NewRope("ABCDE")
	doc.ApplyPositional(b, op.Positional{Insert: true, Pos: 1, Text: "12"}) // O1
	doc.ApplyPositional(b, op.Positional{Pos: 2, Count: 3})                 // O2 original form
	res.Site1AfterO1O2 = b.String()

	// And the OT-correct result.
	o1, _ := op.NewInsert(5, 1, "12")
	o2, _ := op.NewDelete(5, 2, 3)
	_, o2p, _ := op.Transform(o1, o2)
	s, _ := o1.ApplyString("ABCDE")
	s, _ = o2p.ApplyString(s)
	res.IntentionPreserved = s
	return res
}

// Figure3Step records one §5 handling step for replay output.
type Figure3Step struct {
	Title string
	Lines []string
}

// Figure3Result is the full §5 walkthrough produced by real engines.
type Figure3Result struct {
	Steps  []Figure3Step
	Finals map[int]string // site → final text (0 = notifier)
}

// Figure3 replays the paper's §5 scenario on real engines, producing a
// step-by-step log whose timestamps and verdicts match the paper.
func Figure3() (*Figure3Result, error) {
	srv := core.NewServer("ABCDE", core.WithServerCompaction(0), core.WithServerCheckTrace())
	clients := map[int]*core.Client{}
	for site := 1; site <= 3; site++ {
		snap, err := srv.Join(site)
		if err != nil {
			return nil, err
		}
		clients[site] = core.NewClient(site, snap.Text, core.WithClientCompaction(0), core.WithClientCheckTrace())
	}
	res := &Figure3Result{Finals: map[int]string{}}
	// The helpers below record the first engine error and turn every later
	// call into a no-op, so the fixed §5 sequence reads linearly while
	// failures still surface through Figure3's error result.
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}
	step := func(title string) *Figure3Step {
		res.Steps = append(res.Steps, Figure3Step{Title: title})
		return &res.Steps[len(res.Steps)-1]
	}
	logf := func(st *Figure3Step, format string, args ...any) {
		st.Lines = append(st.Lines, fmt.Sprintf(format, args...))
	}

	describe := func(o *op.Op) string {
		ps := op.Positionals(o)
		parts := make([]string, len(ps))
		for i, p := range ps {
			parts[i] = p.Format()
		}
		if len(parts) == 0 {
			return "noop"
		}
		return strings.Join(parts, " + ")
	}

	generate := func(st *Figure3Step, site int, name string, build func(c *core.Client) (core.ClientMsg, error)) core.ClientMsg {
		if firstErr != nil {
			return core.ClientMsg{}
		}
		c := clients[site]
		m, err := build(c)
		if err != nil {
			fail("figure3: generate %s: %w", name, err)
			return core.ClientMsg{}
		}
		logf(st, "%s = %s generated at site %d, timestamped %v, doc now %q",
			name, describe(m.Op), site, m.TS, c.Text())
		return m
	}

	integrate := func(st *Figure3Step, site int, name string, m core.ServerMsg) {
		if firstErr != nil {
			return
		}
		c := clients[site]
		ir, err := c.Integrate(m)
		if err != nil {
			fail("figure3: integrate %s at %d: %w", name, site, err)
			return
		}
		verdicts := make([]string, 0, len(ir.Checks))
		for _, ch := range ir.Checks {
			rel := "∦"
			if ch.Concurrent {
				rel = "∥"
			}
			verdicts = append(verdicts, fmt.Sprintf("%v %s %s", ch.Buffered, rel, name))
		}
		if len(verdicts) == 0 {
			verdicts = append(verdicts, "HB empty — executed as-is")
		}
		logf(st, "%s arrives at site %d with %v: %s; executed %s; doc %q",
			name, site, m.TS, strings.Join(verdicts, ", "), describe(ir.Executed), c.Text())
	}

	receive := func(st *Figure3Step, name string, m core.ClientMsg) map[int]core.ServerMsg {
		if firstErr != nil {
			return nil
		}
		bcast, ir, err := srv.Receive(m)
		if err != nil {
			fail("figure3: receive %s: %w", name, err)
			return nil
		}
		verdicts := make([]string, 0, len(ir.Checks))
		for _, ch := range ir.Checks {
			rel := "∦"
			if ch.Concurrent {
				rel = "∥"
			}
			verdicts = append(verdicts, fmt.Sprintf("%v %s %s", ch.Buffered, rel, name))
		}
		if len(verdicts) == 0 {
			verdicts = append(verdicts, "HB_0 empty — executed as-is")
		}
		logf(st, "%s arrives at site 0: %s; executed %s; SV_0 = %v; doc %q",
			name, strings.Join(verdicts, ", "), describe(ir.Executed), srv.SV().Full(), srv.Text())
		out := map[int]core.ServerMsg{}
		for _, bm := range bcast {
			logf(st, "  %s' propagated to site %d with compressed timestamp %v", name, bm.To, bm.TS)
			out[bm.To] = bm
		}
		return out
	}

	// The §5 sequence.
	st := step("Generation of O1 and O2 (concurrent)")
	m1 := generate(st, 1, "O1", func(c *core.Client) (core.ClientMsg, error) { return c.Insert(1, "12") })
	m2 := generate(st, 2, "O2", func(c *core.Client) (core.ClientMsg, error) { return c.Delete(2, 3) })

	st = step("Handling operation O2")
	b2 := receive(st, "O2", m2)
	integrate(st, 3, "O2'", b2[3])
	st2 := step("Site 3 generates O4 after executing O2'")
	m4 := generate(st2, 3, "O4", func(c *core.Client) (core.ClientMsg, error) { return c.Insert(2, "x") })
	integrate(st2, 1, "O2'", b2[1])

	st = step("Handling operation O1")
	b1 := receive(st, "O1", m1)
	integrate(st, 2, "O1'", b1[2])
	st2 = step("Site 2 generates O3 after executing O1'")
	m3 := generate(st2, 2, "O3", func(c *core.Client) (core.ClientMsg, error) { return c.Insert(4, "!") })

	st = step("Handling operation O4")
	b4 := receive(st, "O4", m4)
	integrate(st, 1, "O4'", b4[1])
	integrate(st, 2, "O4'", b4[2])

	st = step("Handling operation O3")
	b3 := receive(st, "O3", m3)
	integrate(st, 3, "O1'", b1[3])
	integrate(st, 1, "O3'", b3[1])
	integrate(st, 3, "O3'", b3[3])

	if firstErr != nil {
		return nil, firstErr
	}
	res.Finals[0] = srv.Text()
	for site, c := range clients {
		res.Finals[site] = c.Text()
	}
	return res, nil
}
