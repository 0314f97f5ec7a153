package instance_test

import (
	"testing"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/precedence"
)

// The merged breakpoint axis is an observability view: no solver reads it.
// An untraced search, a warm re-solve on the same tables and a DAG solve
// leave it unbuilt; a traced search builds it, and the segment ids its
// trace echoes are the ones a test-side sort of the per-task rows yields.
func TestOnlyATracedSolveBuildsTheAxis(t *testing.T) {
	in := instance.Mixed(5, 24, 16)
	c := instance.Compile(in)
	sc := core.NewScratch()
	unbuilt := func(after string) {
		t.Helper()
		if instance.AxisBuilt(c) {
			t.Fatalf("%s built the breakpoint axis", after)
		}
	}

	if _, err := core.Approximate(in, core.Options{Compiled: c, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	unbuilt("an untraced Approximate")
	warm := &core.WarmStart{}
	for pass := 0; pass < 2; pass++ {
		if _, err := core.Approximate(in, core.Options{Compiled: c, Scratch: sc, WarmStart: warm}); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt("a warm re-solve")
	g, err := precedence.NewGraph(in, precedence.RandomEdges(5, in.N(), 0.3))
	if err != nil {
		t.Fatal(err)
	}
	for _, solve := range []func(precedence.Options) (precedence.Result, error){g.Solve, g.SolveCrossover} {
		if _, err := solve(precedence.Options{Compiled: c, Scratch: sc, Warm: &core.WarmStart{}}); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt("a DAG solve")

	var tr core.SolveTrace
	if _, err := core.Approximate(in, core.Options{Compiled: c, Scratch: sc, Trace: &tr}); err != nil {
		t.Fatal(err)
	}
	if !instance.AxisBuilt(c) {
		t.Fatal("a traced Approximate did not build the breakpoint axis")
	}
	if len(tr.Probes) == 0 {
		t.Fatal("traced search recorded no probe")
	}
	axis := instance.ReferenceAxis(c)
	for _, p := range tr.Probes {
		if want := instance.ReferenceSegment(axis, p.Lambda); p.Segment != want {
			t.Fatalf("probe λ=%v traced segment %d, reference %d", p.Lambda, p.Segment, want)
		}
	}
}
