package rigid

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randJobs(rng *rand.Rand, n, m int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Width: 1 + rng.Intn(m), Time: 0.05 + rng.Float64()*3}
	}
	return jobs
}

// validatePlacements checks widths and capacity by building per-processor
// interval lists.
func validatePlacements(t *testing.T, m int, jobs []Job, pls []Placement) {
	t.Helper()
	type iv struct{ lo, hi float64 }
	per := make([][]iv, m)
	for i, p := range pls {
		if len(p.Procs) != jobs[i].Width {
			t.Fatalf("job %d: %d processors for width %d", i, len(p.Procs), jobs[i].Width)
		}
		for _, j := range p.Procs {
			if j < 0 || j >= m {
				t.Fatalf("job %d: processor %d outside machine %d", i, j, m)
			}
			per[j] = append(per[j], iv{p.Start, p.End(jobs[i])})
		}
	}
	for j, ivs := range per {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		for k := 1; k < len(ivs); k++ {
			if ivs[k].lo < ivs[k-1].hi-1e-9 {
				t.Fatalf("overlap on processor %d: %v then %v", j, ivs[k-1], ivs[k])
			}
		}
	}
}

func lbOf(m int, jobs []Job) float64 {
	var w, tmax float64
	for _, j := range jobs {
		w += float64(j.Width) * j.Time
		if j.Time > tmax {
			tmax = j.Time
		}
	}
	if a := w / float64(m); a > tmax {
		return a
	}
	return tmax
}

func TestListSimple(t *testing.T) {
	jobs := []Job{{Width: 2, Time: 2}, {Width: 2, Time: 1}, {Width: 2, Time: 1}}
	pls := List(4, jobs, nil)
	validatePlacements(t, 4, jobs, pls)
	// Jobs 0 and 1 start at 0; job 2 starts when job 1 finishes at t=1.
	if pls[0].Start != 0 || pls[1].Start != 0 {
		t.Fatalf("first two should start immediately: %v %v", pls[0], pls[1])
	}
	if pls[2].Start != 1 {
		t.Fatalf("third should start at 1, got %v", pls[2].Start)
	}
	if mk := Makespan(jobs, pls); mk != 2 {
		t.Fatalf("makespan = %v, want 2", mk)
	}
}

func TestListSkipsBlockedJob(t *testing.T) {
	// A wide job at the head must not block narrower ones behind it from
	// using free processors at t=0… but greedy scan order means the wide
	// job is started first when it fits.
	jobs := []Job{{Width: 3, Time: 1}, {Width: 1, Time: 1}}
	pls := List(3, jobs, nil)
	validatePlacements(t, 3, jobs, pls)
	if pls[1].Start != 1 {
		t.Fatalf("narrow job should wait: %v", pls[1].Start)
	}
	// Reverse order: narrow starts at 0, wide at 1.
	pls = List(3, jobs, []int{1, 0})
	if pls[1].Start != 0 || pls[0].Start != 1 {
		t.Fatalf("order not respected: %+v", pls)
	}
}

func TestListValidityAndBoundRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(16)
		jobs := randJobs(rng, 1+rng.Intn(50), m)
		for _, order := range [][]int{nil, ByDecreasingTime(jobs)} {
			pls := List(m, jobs, order)
			validatePlacements(t, m, jobs, pls)
			// Garey–Graham-style bound: ≤ 2·max(W/m, tmax).
			if Makespan(jobs, pls) > 2*lbOf(m, jobs)+1e-9 {
				t.Logf("seed %d: list makespan %v > 2·LB %v", seed, Makespan(jobs, pls), lbOf(m, jobs))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The paper's tie rule on the window search: on an all-zero front the
// leftmost block wins, on equal positive frontiers the rightmost.
func TestContiguousTieRule(t *testing.T) {
	var wd Windower
	if x, start := wd.Best([]float64{0, 0, 0}, 1); x != 0 || start != 0 {
		t.Fatalf("want leftmost at 0, got (%d, %v)", x, start)
	}
	if x, start := wd.Best([]float64{1, 1, 1}, 1); x != 2 || start != 1 {
		t.Fatalf("want rightmost at start 1, got (%d, %v)", x, start)
	}
}

// The window search takes the earliest block, not the leftmost: after two
// width-1 jobs of time 2 on P0 and P1, a width-2 job starts on P2–P3 at 0.
func TestContiguousPicksEarliestWindow(t *testing.T) {
	var wd Windower
	if x, start := wd.Best([]float64{2, 2, 0, 0}, 2); x != 2 || start != 0 {
		t.Fatalf("want window [2,3] at 0, got (%d, %v)", x, start)
	}
}

func TestLPTClassicBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(12)
		n := 1 + rng.Intn(60)
		d := make([]float64, n)
		var sum, tmax float64
		for i := range d {
			d[i] = 0.1 + rng.Float64()*5
			sum += d[i]
			if d[i] > tmax {
				tmax = d[i]
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return d[order[a]] > d[order[b]] })
		proc, start := LPT(m, d, nil, order)
		var mk float64
		loads := make([]float64, m)
		for _, i := range order { // replay in assignment order
			if start[i] < loads[proc[i]]-1e-9 {
				t.Logf("seed %d: job %d starts before processor free", seed, i)
				return false
			}
			loads[proc[i]] = start[i] + d[i]
			if loads[proc[i]] > mk {
				mk = loads[proc[i]]
			}
		}
		// Graham: LPT ≤ W/m + (m-1)/m·tmax (a valid relaxation of 4/3·OPT).
		return mk <= sum/float64(m)+float64(m-1)/float64(m)*tmax+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLPTWithReleases(t *testing.T) {
	// P0 busy until 10, P1 free: both jobs go to P1.
	proc, start := LPT(2, []float64{3, 2}, []float64{10, 0}, nil)
	if proc[0] != 1 || start[0] != 0 {
		t.Fatalf("job 0: %d@%v", proc[0], start[0])
	}
	if proc[1] != 1 || start[1] != 3 {
		t.Fatalf("job 1: %d@%v", proc[1], start[1])
	}
}

func TestLPTReleaseLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for wrong release length")
		}
	}()
	LPT(2, []float64{1}, []float64{0}, nil)
}

func TestWidthPanics(t *testing.T) {
	for _, f := range []func(){
		func() { List(2, []Job{{Width: 3, Time: 1}}, nil) },
		func() { List(2, []Job{{Width: 0, Time: 1}}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic for bad width")
				}
			}()
			f()
		}()
	}
}

func TestByDecreasingTimeStable(t *testing.T) {
	jobs := []Job{{1, 2}, {2, 3}, {3, 2}}
	o := ByDecreasingTime(jobs)
	if o[0] != 1 || o[1] != 0 || o[2] != 2 {
		t.Fatalf("order = %v", o)
	}
}
