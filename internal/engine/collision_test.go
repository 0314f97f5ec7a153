package engine

import (
	"math"
	"math/bits"
	"testing"

	"malsched/internal/fphash"
	"malsched/internal/instance"
	"malsched/internal/task"
)

// fphash's round constants (fphash.TestPinnedVectors pins the kernel).
const prime1, prime2 = 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F

// inverse returns x with x·p ≡ 1 (mod 2⁶⁴) for odd p (Newton's iteration
// doubles the correct low bits each step).
func inverse(p uint64) uint64 {
	x := p
	for range 6 {
		x *= 2 - p*x
	}
	return x
}

// preimage returns the word that takes the state from to the state to:
// one fphash.Hash.Word round solved backwards.
func preimage(from, to fphash.Hash) uint64 {
	y := bits.RotateLeft64(uint64(to)*inverse(prime1), -31)
	return (y - uint64(from)) * inverse(prime2)
}

// forge builds a workload B of a's machine size and task count whose
// fingerprint state equals a's, so every key folded from it — memo,
// compiled cache, route — equals a's too: a's tasks but the last, one time
// nudged by an ulp so that B differs from a even if the rest matched, and a
// width-1 last task whose one time is solved for a's state. It walks the
// nudges until the solved word is a positive finite float.
func forge(t testing.TB, a *instance.Instance) *instance.Instance {
	t.Helper()
	target := instanceHash(a)
	n := a.N()
	for i := 0; i < n-1; i++ {
		row := make([]float64, a.Tasks[i].MaxProcs())
		for p := range row {
			row[p] = a.Tasks[i].Time(p + 1)
		}
		for p := range row {
			for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
				nudged := append([]float64(nil), row...)
				nudged[p] = math.Nextafter(nudged[p], dir)
				tk, err := task.New(a.Tasks[i].Name, nudged)
				if err != nil {
					continue
				}
				tasks := append([]task.Task(nil), a.Tasks[:n-1]...)
				tasks[i] = tk
				h := fphash.New()
				h.Word(uint64(a.M))
				h.Word(uint64(n))
				for _, tk := range tasks {
					h.Word(uint64(tk.MaxProcs()))
					for q := 1; q <= tk.MaxProcs(); q++ {
						h.Word(math.Float64bits(tk.Time(q)))
					}
				}
				h.Word(1)
				last, err := task.New("forged", []float64{math.Float64frombits(preimage(h, target))})
				if err != nil {
					continue
				}
				b, err := instance.New(a.Name+"-forged", a.M, append(tasks, last))
				if err != nil {
					continue
				}
				if instanceHash(b) != target {
					t.Fatal("forged workload does not reach the target state")
				}
				return b
			}
		}
	}
	t.Fatalf("no nudge of %s forges a collision", a.Name)
	return nil
}

// A workload crafted onto another's keys gets its own answer from both
// caches, whichever of the two is solved first, and the engine counts each
// key it refused to trust.
func TestCollidingWorkloadsKeepTheirAnswers(t *testing.T) {
	a := instance.Mixed(7, 24, 16)
	b := forge(t, a)
	other := Options{Compact: true}
	if fingerprint(a, Options{}) != fingerprint(b, Options{}) || fingerprint(a, other) != fingerprint(b, other) || instanceKey(a) != instanceKey(b) {
		t.Fatal("the forged pair does not share its keys")
	}
	want := map[*instance.Instance]map[bool]Solution{}
	for _, in := range []*instance.Instance{a, b} {
		want[in] = map[bool]Solution{}
		for _, compact := range []bool{false, true} {
			sol, err := Solve(in, Options{Compact: compact})
			if err != nil {
				t.Fatal(err)
			}
			want[in][compact] = sol
		}
	}
	if sameSolution(want[a][false], want[b][false]) {
		t.Fatal("the pair's own answers coincide: the test would prove nothing")
	}

	for _, order := range [][2]*instance.Instance{{b, a}, {a, b}} {
		first, second := order[0], order[1]
		// From the memo: the second workload probes the first one's entry.
		e := New(Config{Workers: 1})
		if out := e.ScheduleWith(first, Options{}, 0); out.Err != nil || !sameSolution(out.Solution, want[first][false]) {
			t.Fatalf("%s: %v", first.Name, out.Err)
		}
		out := e.ScheduleWith(second, Options{}, 0)
		if out.Err != nil || out.FromMemo || !sameSolution(out.Solution, want[second][false]) {
			t.Fatalf("%s after %s: err %v, from memo %v, makespan %v (own %v)",
				second.Name, first.Name, out.Err, out.FromMemo, out.Makespan, want[second][false].Makespan)
		}
		if out := e.ScheduleWith(second, Options{}, 0); !out.FromMemo || !sameSolution(out.Solution, want[second][false]) {
			t.Fatalf("%s: the repeat is not its own memo hit", second.Name)
		}
		// From the compiled cache: under other options the memo misses, and
		// the compiled tables under the shared key are now the second
		// workload's.
		out = e.ScheduleWith(first, other, 0)
		if out.Err != nil || !sameSolution(out.Solution, want[first][true]) {
			t.Fatalf("%s compacted after %s: err %v", first.Name, second.Name, out.Err)
		}
		// The memo collided once (second on first's entry), the compiled
		// cache twice (second on first's tables, then first on second's).
		if st := e.Stats(); st.Collisions != 3 || st.MemoHits != 1 || st.Errors != 0 {
			t.Fatalf("%s then %s: stats %+v, want 3 collisions and 1 hit", first.Name, second.Name, st)
		}
	}
}
