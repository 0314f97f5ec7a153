package instance

import (
	"fmt"
	"math"
	"math/rand"

	"malsched/internal/task"
)

// Generators for the experiment suite. All are deterministic functions of
// the seed so every experiment table is exactly regenerable.

// RandomMonotoneTask draws a uniformly random valid monotone profile: t(1)
// uniform in [0.5, 10], then each t(p+1) uniform in the legal band
// [p/(p+1)·t(p), t(p)]. This is the least structured monotone workload and
// the backbone of the property tests.
func RandomMonotoneTask(rng *rand.Rand, name string, m int) task.Task {
	times := make([]float64, m)
	times[0] = 0.5 + 9.5*rng.Float64()
	for p := 1; p < m; p++ {
		lo := times[p-1] * float64(p) / float64(p+1)
		times[p] = lo + (times[p-1]-lo)*rng.Float64()
	}
	return task.MustNew(name, times)
}

// RandomMonotone builds an instance of n uniformly random monotone tasks.
func RandomMonotone(seed int64, n, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = RandomMonotoneTask(rng, fmt.Sprintf("rnd%d", i), m)
	}
	return MustNew(fmt.Sprintf("random-monotone(n=%d,m=%d,seed=%d)", n, m, seed), m, tasks)
}

// Mixed builds the standard mixed workload: a blend of Amdahl, power-law,
// communication-overhead and purely sequential tasks with log-uniform works
// in [0.1, 10]. This is the default family for the headline experiment E5.
func Mixed(seed int64, n, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		w := math.Exp(rng.Float64()*math.Log(100)) * 0.1 // log-uniform [0.1,10]
		name := fmt.Sprintf("mix%d", i)
		switch rng.Intn(4) {
		case 0:
			tasks[i] = task.Amdahl(name, w, 0.02+0.3*rng.Float64(), m)
		case 1:
			tasks[i] = task.PowerLaw(name, w, 0.4+0.6*rng.Float64(), m)
		case 2:
			tasks[i] = task.CommOverhead(name, w, w*0.002*(1+9*rng.Float64()), m)
		default:
			tasks[i] = task.Sequential(name, w*0.3, m)
		}
	}
	return MustNew(fmt.Sprintf("mixed(n=%d,m=%d,seed=%d)", n, m, seed), m, tasks)
}

// PowerLawFamily builds n power-law tasks t = w/p^alpha with log-uniform
// works; the family where the Prasanna–Musicus continuous optimum is a
// closed form (experiment E8).
func PowerLawFamily(seed int64, n, m int, alpha float64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		w := math.Exp(rng.Float64()*math.Log(100)) * 0.1
		tasks[i] = task.PowerLaw(fmt.Sprintf("pl%d", i), w, alpha, m)
	}
	return MustNew(fmt.Sprintf("powerlaw(n=%d,m=%d,alpha=%.2f,seed=%d)", n, m, alpha, seed), m, tasks)
}

// CommHeavy builds tasks dominated by communication overhead, the regime the
// paper's introduction motivates (large communication times, delay-model
// heuristics break down). Profiles flatten early: parallelism is expensive.
func CommHeavy(seed int64, n, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		w := 0.5 + 4.5*rng.Float64()
		c := w * (0.02 + 0.1*rng.Float64()) // strong overhead
		tasks[i] = task.CommOverhead(fmt.Sprintf("comm%d", i), w, c, m)
	}
	return MustNew(fmt.Sprintf("comm-heavy(n=%d,m=%d,seed=%d)", n, m, seed), m, tasks)
}

// WideParallel builds few, wide tasks whose canonical allotments saturate the
// machine, pushing instances into the knapsack branch (large canonical
// prefix area W; experiment E4).
func WideParallel(seed int64, n, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		// Near-linear speedup with a large work so γ(λ) is big.
		w := float64(m) * (0.3 + 0.7*rng.Float64())
		tasks[i] = task.PowerLaw(fmt.Sprintf("wide%d", i), w, 0.85+0.15*rng.Float64(), m)
	}
	return MustNew(fmt.Sprintf("wide-parallel(n=%d,m=%d,seed=%d)", n, m, seed), m, tasks)
}

// LPTAdversarial builds Graham's classical LPT worst case from sequential
// tasks (durations 2m−1, 2m−1, 2m−2, 2m−2, …, m+1, m+1, m, m, m), which
// drives list-based phases toward their bound (experiment E2).
func LPTAdversarial(m int) *Instance {
	var tasks []task.Task
	id := 0
	add := func(d float64) {
		tasks = append(tasks, task.Sequential(fmt.Sprintf("lpt%d", id), d, m))
		id++
	}
	for k := 2*m - 1; k >= m+1; k-- {
		add(float64(k))
		add(float64(k))
	}
	add(float64(m))
	add(float64(m))
	add(float64(m))
	return MustNew(fmt.Sprintf("lpt-adversarial(m=%d)", m), m, tasks)
}

// TwoShelfStress builds an instance engineered so the canonical allotment
// at the optimal makespan has big tasks overflowing the machine: a layer of
// tasks with canonical time ≈ 1 covering more than m processors, plus
// mid-size and small filler. This exercises the knapsack selection and the
// trivial-solution path.
func TwoShelfStress(seed int64, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	var tasks []task.Task
	id := 0
	mk := func(f func() task.Task) {
		tasks = append(tasks, f())
		id++
	}
	// Big near-linear tasks: t(p) = w/p^0.95 with w chosen so t at width
	// m/4 is just under 1.
	for i := 0; i < 6; i++ {
		w := math.Pow(float64(m)/4, 0.95) * (0.85 + 0.14*rng.Float64())
		mk(func() task.Task { return task.PowerLaw(fmt.Sprintf("big%d", id), w, 0.95, m) })
	}
	// Mid tasks with canonical time in (1/2, µ].
	for i := 0; i < 4; i++ {
		mk(func() task.Task { return task.Sequential(fmt.Sprintf("mid%d", id), 0.55+0.15*rng.Float64(), m) })
	}
	// Small sequential filler.
	for i := 0; i < 3*m/2; i++ {
		mk(func() task.Task { return task.Sequential(fmt.Sprintf("small%d", id), 0.05+0.4*rng.Float64(), m) })
	}
	return MustNew(fmt.Sprintf("two-shelf-stress(m=%d,seed=%d)", m, seed), m, tasks)
}

// OceanMesh models the adaptive-mesh ocean-circulation workload of the
// paper's reference [3]: refinement levels hold geometrically more blocks of
// geometrically smaller cost; each mesh region is a malleable task whose
// parallel efficiency degrades with depth (finer blocks communicate more).
// rounds > 1 perturbs costs to emulate dynamic re-meshing between
// scheduling rounds; round r is deterministic given the seed.
func OceanMesh(seed int64, m, levels, round int) *Instance {
	rng := rand.New(rand.NewSource(seed + int64(round)*7919))
	var tasks []task.Task
	id := 0
	for l := 0; l < levels; l++ {
		blocks := 1 << (2 * l) // 4^l regions per refinement level
		if blocks > 64 {
			blocks = 64
		}
		for b := 0; b < blocks; b++ {
			base := 8.0 / float64(int(1)<<l) // finer blocks are cheaper…
			w := base * (0.5 + rng.Float64())
			frac := 0.01 + 0.08*float64(l) // …but parallelise worse
			if frac > 0.5 {
				frac = 0.5
			}
			tasks = append(tasks, task.Amdahl(fmt.Sprintf("L%d.B%d", l, b), w, frac, m))
			id++
		}
	}
	return MustNew(fmt.Sprintf("ocean-mesh(m=%d,levels=%d,seed=%d,round=%d)", m, levels, seed, round), m, tasks)
}

// NonMonotoneMixed builds the E9 ablation workload: the Mixed family with a
// fraction of tasks given super-linear cache-effect dips. Repair=true runs
// the profiles through task.Monotonize first.
func NonMonotoneMixed(seed int64, n, m int, dipFraction float64, repair bool) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		w := 0.5 + 7*rng.Float64()
		name := fmt.Sprintf("nm%d", i)
		if rng.Float64() < dipFraction {
			dip := 2 + rng.Intn(m)
			if dip > m {
				dip = m
			}
			nm := task.NonMonotone(name, w, dip, 0.2+0.4*rng.Float64(), m)
			if repair {
				tasks[i] = task.MustNew(name, task.Monotonize(nm.Times()))
			} else {
				tasks[i] = nm
			}
		} else {
			tasks[i] = task.PowerLaw(name, w, 0.5+0.5*rng.Float64(), m)
		}
	}
	return MustNew(fmt.Sprintf("non-monotone(n=%d,m=%d,seed=%d,repair=%v)", n, m, seed, repair), m, tasks)
}

// Families returns the named generator set used by experiments E3 and E5,
// mapping family name to a deterministic constructor.
func Families() map[string]func(seed int64, n, m int) *Instance {
	return map[string]func(seed int64, n, m int) *Instance{
		"random-monotone": RandomMonotone,
		"mixed":           Mixed,
		"comm-heavy":      CommHeavy,
		"wide-parallel":   WideParallel,
		"powerlaw-0.7": func(seed int64, n, m int) *Instance {
			return PowerLawFamily(seed, n, m, 0.7)
		},
	}
}

// KnapsackStress builds instances whose canonical allotment at λ near the
// optimum genuinely overflows the machine (q₁ > 0 in the paper's §4
// partition), forcing the two-shelf knapsack selection to do real work.
// The big tasks are linear with work ≈ 1.5λ: their canonical width at λ is
// 2 (t(2) ≈ 0.76λ > μλ, so they land in T1) while an optimal schedule runs
// them 5-wide, 3-high — k ≈ 0.58m of them fit in the λ-box, so
// Σ_{T1} γ ≈ 1.16m exceeds m. Sequential filler tops up the area.
func KnapsackStress(seed int64, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	var tasks []task.Task
	k := int(0.58*float64(m)) + 1
	for i := 0; i < k; i++ {
		w := 1.50 + 0.04*rng.Float64()
		tasks = append(tasks, task.Linear(fmt.Sprintf("big%d", i), w, m))
	}
	fill := 0.10 * float64(m)
	for fill > 0 {
		w := 0.05 + 0.15*rng.Float64()
		tasks = append(tasks, task.Sequential(fmt.Sprintf("fill%d", len(tasks)), w, m))
		fill -= w
	}
	return MustNew(fmt.Sprintf("knapsack-stress(m=%d,seed=%d)", m, seed), m, tasks)
}
