package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/server"
	"malsched/internal/wire"
)

// clients is the number of closed-loop client goroutines. The service's
// callers — cluster managers, msroute, the simulator — each wait for their
// plan before asking again, so the load is a closed loop; two is the
// sandbox's processor count.
const clients = 2

// class is one kind of request; a workload is a mix of classes.
type class uint8

const (
	// clsHot cycles a small popular set over the binary codec: every timed
	// request is a memo hit.
	clsHot class = iota
	// clsHotJSON is the same popular set over the JSON codec.
	clsHotJSON
	// clsCold cycles a pool of unique mrt instances larger than the
	// stack's caches: every timed request is a full compile + λ-search.
	clsCold
	// clsDAG is clsCold with a precedence graph and the dag solver.
	clsDAG
	// clsLineage walks replanning chains: a base instance and its
	// shrinking residuals under one lineage key.
	clsLineage
	numClasses
)

var classNames = [numClasses]string{"hot", "hot-json", "cold", "dag", "lineage"}

// Size classes. One per request class: a mixed-size pool spreads
// throughput and p99 by 20 % run to run, a single class holds a few
// percent (see README).
const (
	hotN, hotM       = 24, 16
	coldN, coldM     = 24, 16
	dagN, dagM       = 16, 8
	chainN, chainM   = 30, 8
	chainSteps       = 20 // residual steps after the base instance
	chainLen         = chainSteps + 1
	mixPatternLength = 2000
)

// workload names a traffic mix: the share of each class (weights out of
// 20) and, per scale, how many distinct requests each class draws from.
type workload struct {
	name    string
	why     string
	weights [numClasses]int
}

var workloads = []workload{
	{
		name:    "serve-hot",
		why:     "64 popular instances cycled over the binary codec: all memo hits, so wire, router, server and engine-memo do the work and solvers none",
		weights: [numClasses]int{clsHot: 20},
	},
	{
		name:    "serve-cold",
		why:     "12288 unique mrt instances cycled in order, more than the caches hold: every request compiles, searches and verifies, wire and router are a few percent",
		weights: [numClasses]int{clsCold: 20},
	},
	{
		name:    "serve-dag",
		why:     "unique instances with chain, out-tree and random graphs over wire/v2 frames, pool larger than the caches: precedence and verify.Precedence do the work",
		weights: [numClasses]int{clsDAG: 20},
	},
	{
		name:    "serve-replan",
		why:     "lineage chains of shrinking residuals: every request a memo miss but a warm-state hit on a pinned, never-stolen queue",
		weights: [numClasses]int{clsLineage: 20},
	},
	{
		name:    "serve-mix",
		why:     "60% hot binary, 20% hot JSON, 10% cold mrt, 5% cold dag, 5% lineage: p50 sits in the hits and p99 in the solves, so a gain on one that queues the other shows here",
		weights: [numClasses]int{clsHot: 12, clsHotJSON: 4, clsCold: 2, clsDAG: 1, clsLineage: 1},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale sizes a run. full is the measured configuration; quick shrinks the
// pools and the stack's caches together so the cache-thrash property of
// the cold classes (pool ≫ caches) survives at test size.
type scale struct {
	// memoCap is server.Config.MemoCapacity: 0 keeps every default of the
	// real stack (1024-entry memo, compiled and warm LRUs per engine
	// shard).
	memoCap int
	// hot is the popular-set size; cold, dag and chains are the unique
	// pools of a single-class workload, the mix* fields those of
	// serve-mix (smaller: the classes share the caches they thrash).
	hot, cold, dag, chains     int
	mixCold, mixDAG, mixChains int
	// warmTotal is the least number of requests a warm-up sends in all:
	// after its verified pass over every distinct request it keeps going
	// until this count, so the first timed request meets a process that
	// is already at speed.
	warmTotal int
	// sample is the number of requests the traced pass replays.
	sample int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
}

// The default stack has 2 shards × 4 engine shards × 1024 entries. A pool
// cycled in order thrashes an LRU only if every engine shard sees more
// than its capacity of distinct keys per cycle; the consistent-hash split
// between the two shards is about 45/55, so 12288 leaves the emptiest
// engine shard ≈ 1380 keys for its 1024 slots.
var (
	fullScale = scale{
		memoCap: 0,
		hot:     64, cold: 12288, dag: 12288, chains: 768,
		mixCold: 6144, mixDAG: 3072, mixChains: 192,
		warmTotal: 16384, sample: 2000, setups: 3,
	}
	quickScale = scale{
		memoCap: 8,
		hot:     8, cold: 384, dag: 384, chains: 48,
		mixCold: 256, mixDAG: 128, mixChains: 16,
		warmTotal: 600, sample: 80, setups: 3,
	}
)

// pools returns how many units (requests, or chains for clsLineage) each
// class of the workload draws from at this scale.
func (w *workload) pools(sc scale) [numClasses]int {
	var p [numClasses]int
	present := 0
	for _, x := range w.weights {
		if x > 0 {
			present++
		}
	}
	mixed := present > 1
	for c := class(0); c < numClasses; c++ {
		if w.weights[c] == 0 {
			continue
		}
		switch c {
		case clsHot, clsHotJSON:
			p[c] = sc.hot
		case clsCold:
			p[c] = pick(mixed, sc.mixCold, sc.cold)
		case clsDAG:
			p[c] = pick(mixed, sc.mixDAG, sc.dag)
		case clsLineage:
			p[c] = pick(mixed, sc.mixChains, sc.chains)
		}
	}
	return p
}

func pick(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

// item is one distinct request of a workload's universe: the bytes the
// stack sees, plus the certificate the warm-up pass verified for it.
type item struct {
	body  []byte
	class class
	// mrt marks responses that carry the paper's √3(1+ε) certificate.
	mrt bool

	// The verified record: makespan and lower-bound bits and the plan
	// hash. The timed window compares every response against it.
	mk, lb, plan uint64
	verified     bool
}

func (it *item) contentType() string {
	if it.class == clsHotJSON {
		return "application/json"
	}
	return wire.ContentType
}

// source is the generated form of an item, alive only while the warm-up
// verifies it: the stack is handed bytes, never these structs.
type source struct {
	in    *instance.Instance
	graph [][]int
}

// universe is every distinct request of one (workload, seed, scale), and
// each client's walk through it. Item k of a class belongs to client
// k mod clients; indices are laid out class by class, so the layout is a
// function of (workload, scale) alone and the clients can generate their
// halves concurrently.
type universe struct {
	seed  int64
	pools [numClasses]int
	base  [numClasses]int32 // index of each class's first item
	items []item
	plans [clients]*clientPlan
	// residualNS collects, per client, the cost of each instance.Residual
	// call made while generating lineage chains (the client-side half of a
	// replan).
	residualNS [clients][]float64
}

// clientPlan is one client's deterministic request sequence: a cyclic
// class pattern and, per class, the cyclic list of item indices the client
// owns. Lineage items are laid out chain by chain, so a chain's steps
// reach the stack in order and from one client.
type clientPlan struct {
	pattern []class
	pool    [numClasses][]int32
	cur     [numClasses]int
	pos     int
}

// next returns the index of the client's next item and advances.
func (p *clientPlan) next() int32 {
	c := p.pattern[p.pos%len(p.pattern)]
	p.pos++
	pool := p.pool[c]
	i := pool[p.cur[c]%len(pool)]
	p.cur[c]++
	return i
}

// classCounts returns how many requests of each class the first n steps of
// the pattern hold.
func (p *clientPlan) classCounts(n int) [numClasses]int {
	var per, out [numClasses]int
	for _, c := range p.pattern {
		per[c]++
	}
	full, rest := n/len(p.pattern), n%len(p.pattern)
	for c := range out {
		out[c] = per[c] * full
	}
	for _, c := range p.pattern[:rest] {
		out[c]++
	}
	return out
}

// itemSeed derives the generator seed of unit k of a class: distinct per
// (run seed, class, unit), so two run seeds share no instance.
func itemSeed(seed int64, c class, k int) int64 {
	return seed*1_000_003 + int64(c)*100_000_007 + int64(k)
}

// newUniverse lays out the universe of a workload — item slots, client
// patterns and pools — without generating any request yet.
func newUniverse(w *workload, seed int64, sc scale) *universe {
	u := &universe{seed: seed, pools: w.pools(sc)}
	total := int32(0)
	for c := class(0); c < numClasses; c++ {
		u.base[c] = total
		total += int32(u.pools[c] * unitLen(c))
	}
	u.items = make([]item, total)
	for cl := 0; cl < clients; cl++ {
		p := &clientPlan{pattern: pattern(w, seed, cl)}
		for c := class(0); c < numClasses; c++ {
			for k := cl; k < u.pools[c]; k += clients {
				for s := 0; s < unitLen(c); s++ {
					p.pool[c] = append(p.pool[c], u.base[c]+int32(k*unitLen(c)+s))
				}
			}
		}
		u.plans[cl] = p
	}
	return u
}

// unitLen is how many items one pool unit of the class expands to: a
// lineage unit is a whole chain.
func unitLen(c class) int {
	if c == clsLineage {
		return chainLen
	}
	return 1
}

// generate fills the items one client owns, in the order the client first
// sends them (chains step by step). emit, when non-nil, is called once per
// item with its generated source; the warm-up verifies there and lets the
// source go. Distinct clients may generate concurrently.
func (u *universe) generate(client int, emit func(idx int32, src source) error) error {
	put := func(idx int32, it item, src source) error {
		u.items[idx] = it
		if emit != nil {
			return emit(idx, src)
		}
		return nil
	}
	for c := class(0); c < numClasses; c++ {
		for k := client; k < u.pools[c]; k += clients {
			idx := u.base[c] + int32(k*unitLen(c))
			if c == clsLineage {
				if err := u.genChain(k, client, idx, put); err != nil {
					return err
				}
				continue
			}
			it, src, err := genItem(u.seed, c, k)
			if err != nil {
				return err
			}
			if err := put(idx, it, src); err != nil {
				return err
			}
		}
	}
	return nil
}

// pattern builds a client's cyclic class schedule: the single class of a
// pure workload, or a seeded shuffle holding each class of a mix in its
// exact share.
func pattern(w *workload, seed int64, client int) []class {
	var present []class
	for c := class(0); c < numClasses; c++ {
		if w.weights[c] > 0 {
			present = append(present, c)
		}
	}
	if len(present) == 1 {
		return present
	}
	pat := make([]class, 0, mixPatternLength)
	for _, c := range present {
		for i := 0; i < w.weights[c]*mixPatternLength/20; i++ {
			pat = append(pat, c)
		}
	}
	rng := rand.New(rand.NewSource(seed*31 + int64(client)))
	rng.Shuffle(len(pat), func(i, j int) { pat[i], pat[j] = pat[j], pat[i] })
	return pat
}

// genItem generates unit k of a non-lineage class.
func genItem(seed int64, c class, k int) (item, source, error) {
	s := itemSeed(seed, c, k)
	switch c {
	case clsHot, clsHotJSON:
		// Both hot classes draw the same popular set (seeded as clsHot),
		// alternating the mixed and comm-heavy families.
		s = itemSeed(seed, clsHot, k)
		in := instance.Mixed(s, hotN, hotM)
		if k%2 == 1 {
			in = instance.CommHeavy(s, hotN, hotM)
		}
		it := item{class: c, mrt: true}
		if c == clsHot {
			it.body = wire.AppendScheduleRequest(nil, in, nil, nil)
			return it, source{in: in}, nil
		}
		raw, err := server.EncodeInstance(in)
		if err != nil {
			return item{}, source{}, err
		}
		it.body, err = json.Marshal(wire.ScheduleRequest{Instance: raw})
		return it, source{in: in}, err
	case clsCold:
		in := instance.Mixed(s, coldN, coldM)
		return item{class: c, mrt: true, body: wire.AppendScheduleRequest(nil, in, nil, nil)}, source{in: in}, nil
	case clsDAG:
		in := instance.Mixed(s, dagN, dagM)
		var graph [][]int
		switch k % 3 {
		case 0:
			graph = precedence.ChainEdges(dagN)
		case 1:
			var err error
			if graph, err = precedence.OutTreeEdges(dagN, 2); err != nil {
				return item{}, source{}, err
			}
		default:
			graph = precedence.RandomEdges(s, dagN, 0.3)
		}
		body := wire.AppendScheduleRequest(nil, in, graph, &wire.RequestOptions{Solver: "dag"})
		return item{class: c, body: body}, source{in: in, graph: graph}, nil
	}
	return item{}, source{}, fmt.Errorf("bench: class %d has no item generator", c)
}

// genChain generates lineage chain k into the slots from idx on: the base
// instance, then chainSteps residuals, each dropping the head task and
// halving the remaining fraction of the next — a client re-submitting its
// shrinking queue.
func (u *universe) genChain(k, client int, idx int32, put func(int32, item, source) error) error {
	base := instance.Mixed(itemSeed(u.seed, clsLineage, k), chainN, chainM)
	opts := &wire.RequestOptions{Lineage: fmt.Sprintf("chain-%d", k)}
	emit := func(step int, in *instance.Instance) error {
		it := item{class: clsLineage, mrt: true, body: wire.AppendScheduleRequest(nil, in, nil, opts)}
		return put(idx+int32(step), it, source{in: in})
	}
	if err := emit(0, base); err != nil {
		return err
	}
	compiled := instance.Compile(base)
	ids := make([]int, chainN)
	rem := make([]float64, chainN)
	for i := range ids {
		ids[i], rem[i] = i, 1
	}
	for step := 1; step <= chainSteps; step++ {
		ids, rem = ids[1:], rem[1:]
		rem[0] /= 2
		t := time.Now()
		in, err := instance.Residual(compiled, fmt.Sprintf("chain-%d.%d", k, step), chainM, ids, rem)
		u.residualNS[client] = append(u.residualNS[client], float64(time.Since(t).Nanoseconds()))
		if err != nil {
			return err
		}
		if err := emit(step, in); err != nil {
			return err
		}
	}
	return nil
}
