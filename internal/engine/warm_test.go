package engine

import (
	"math/rand"
	"testing"

	"malsched/internal/instance"
)

// warmStream builds a replanning lineage: the parent instance followed by a
// chain of residual carve-outs (as the replan-on-arrival policy produces),
// each with its tables derived via instance.ResidualCompiled.
func warmStream(t *testing.T, seed int64, steps int) []*instance.Compiled {
	t.Helper()
	parent := instance.Mixed(seed, 24, 8)
	pc := instance.Compile(parent)
	rng := rand.New(rand.NewSource(seed * 7919))
	chain := []*instance.Compiled{pc}
	for s := 0; s < steps; s++ {
		var ids []int
		var rem []float64
		for i := range parent.Tasks {
			if rng.Float64() < 0.7 {
				ids = append(ids, i)
				r := 1.0
				if rng.Float64() < 0.3 {
					r = 0.25 + 0.75*rng.Float64()
				}
				rem = append(rem, r)
			}
		}
		if len(ids) < 2 {
			ids, rem = []int{0, 1, 2}, []float64{1, 1, 0.5}
		}
		_, rc, err := instance.ResidualCompiled(pc, "resid", 4+rng.Intn(8), ids, rem)
		if err != nil {
			t.Fatalf("residual step %d: %v", s, err)
		}
		chain = append(chain, rc)
	}
	return chain
}

// ScheduleWarm must return solutions bit-identical to cold ScheduleWith at
// every step of a replanning lineage, while performing strictly fewer real
// probes over the lineage and synthesizing at least one outcome.
func TestScheduleWarmMatchesColdBitIdentical(t *testing.T) {
	chain := warmStream(t, 11, 6)
	warmE := New(Config{Workers: 1, MemoCapacity: -1})
	coldE := New(Config{Workers: 1, MemoCapacity: -1})
	ws := warmE.NewWarmState(42)
	o := Options{}

	warmProbes, coldProbes, synth := 0, 0, 0
	for i, c := range chain {
		in := c.Instance()
		w := warmE.ScheduleWarm(in, c, o, 0, ws)
		if w.Err != nil {
			t.Fatalf("step %d warm: %v", i, w.Err)
		}
		cold := coldE.ScheduleCompiled(in, c, o, 0, Fingerprint(in, o))
		if cold.Err != nil {
			t.Fatalf("step %d cold: %v", i, cold.Err)
		}
		if !sameSolution(w.Solution, cold.Solution) {
			t.Fatalf("step %d: warm solution differs from cold:\nwarm: mk=%v lb=%v %s\ncold: mk=%v lb=%v %s",
				i, w.Makespan, w.LowerBound, w.Branch,
				cold.Makespan, cold.LowerBound, cold.Branch)
		}
		warmProbes += w.Probes
		coldProbes += cold.Probes
		synth += w.Synthesized
	}
	if synth == 0 {
		t.Fatal("lineage synthesized no probe outcomes")
	}
	if warmProbes >= coldProbes {
		t.Fatalf("warm lineage ran %d probes, cold %d — warm must be strictly cheaper",
			warmProbes, coldProbes)
	}
	if ws.Solves() != uint64(len(chain)) {
		t.Fatalf("state recorded %d solves, want %d", ws.Solves(), len(chain))
	}
}

// The engine's warm counters must reflect warm solves and synthesized
// outcomes; cold solves must leave them untouched.
func TestWarmStats(t *testing.T) {
	chain := warmStream(t, 3, 4)
	e := New(Config{Workers: 1, MemoCapacity: -1})
	if st := e.Stats(); st.WarmSolves != 0 || st.Synthesized != 0 {
		t.Fatalf("fresh engine has warm stats: %+v", st)
	}
	e.ScheduleWith(chain[0].Instance(), Options{}, 0)
	if st := e.Stats(); st.WarmSolves != 0 || st.Synthesized != 0 {
		t.Fatalf("cold solve moved warm stats: %+v", st)
	}
	ws := e.NewWarmState(1)
	var synth uint64
	for _, c := range chain {
		out := e.ScheduleWarm(c.Instance(), c, Options{}, 0, ws)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		synth += uint64(out.Synthesized)
	}
	st := e.Stats()
	if st.WarmSolves != uint64(len(chain)) {
		t.Fatalf("WarmSolves = %d, want %d", st.WarmSolves, len(chain))
	}
	if st.Synthesized != synth || synth == 0 {
		t.Fatalf("Synthesized = %d, want %d (> 0)", st.Synthesized, synth)
	}
}

// A memo hit must bypass warm mode entirely: the lineage state is not
// consulted, not advanced, and WarmSolves does not move.
func TestWarmMemoHitSkipsLineage(t *testing.T) {
	in := instance.Mixed(5, 20, 8)
	c := instance.Compile(in)
	e := New(Config{Workers: 1})
	ws := e.WarmFor(7)

	first := e.ScheduleWarm(in, c, Options{}, 0, ws)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	second := e.ScheduleWarm(in, c, Options{}, 0, ws)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.FromMemo {
		t.Fatal("second identical warm solve missed the memo")
	}
	if !sameSolution(first.Solution, second.Solution) {
		t.Fatal("memo hit differs from the warm solve that seeded it")
	}
	if got := e.Stats().WarmSolves; got != 1 {
		t.Fatalf("WarmSolves = %d, want 1 (memo hits excluded)", got)
	}
	if got := ws.Solves(); got != 1 {
		t.Fatalf("state solves = %d, want 1 (memo hit must not advance the lineage)", got)
	}
}

// WarmFor is a get-or-create registry: the same lineage id maps to the same
// state, different ids to different states, and WarmEntries tracks residents.
// With the memo disabled every call returns a fresh unregistered state.
func TestWarmForRegistry(t *testing.T) {
	e := New(Config{Workers: 1})
	a, b := e.WarmFor(100), e.WarmFor(100)
	if a != b {
		t.Fatal("same lineage returned distinct states")
	}
	if c := e.WarmFor(200); c == a {
		t.Fatal("distinct lineages share a state")
	}
	if a.Lineage() != 100 {
		t.Fatalf("Lineage() = %d, want 100", a.Lineage())
	}
	if got := e.Stats().WarmEntries; got != 2 {
		t.Fatalf("WarmEntries = %d, want 2", got)
	}

	d := New(Config{Workers: 1, MemoCapacity: -1})
	if d.WarmFor(100) == d.WarmFor(100) {
		t.Fatal("disabled registry must return fresh states")
	}
	if got := d.Stats().WarmEntries; got != 0 {
		t.Fatalf("disabled registry reports %d entries", got)
	}
}

// A nil warm state degrades ScheduleWarm to a plain cold solve.
func TestScheduleWarmNilState(t *testing.T) {
	in := instance.Mixed(9, 18, 8)
	c := instance.Compile(in)
	e := New(Config{Workers: 1, MemoCapacity: -1})
	out := e.ScheduleWarm(in, c, Options{}, 0, nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	want := e.ScheduleWith(in, Options{}, 0)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if !sameSolution(out.Solution, want.Solution) {
		t.Fatal("nil-state warm solve differs from cold")
	}
	if st := e.Stats(); st.WarmSolves != 0 || st.Synthesized != 0 {
		t.Fatalf("nil-state solve counted as warm: %+v", st)
	}
}
