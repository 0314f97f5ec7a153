// Oceansim replays the motivating application of the paper (reference [3]:
// dynamic load balancing for an ocean-circulation model with adaptive
// meshing): every simulation round re-meshes the domain, changing the block
// costs, and the blocks — malleable tasks whose parallel efficiency drops
// with refinement depth — are rescheduled. The example compares the paper's
// scheduler against the no-malleability baseline round by round and
// accumulates the saved machine time.
package main

import (
	"fmt"
	"log"

	"malsched"
	"malsched/internal/instance"
)

func main() {
	const (
		m      = 32
		levels = 4
		rounds = 8
		seed   = 7
	)

	fmt.Printf("ocean circulation, %d processors, %d refinement levels, %d re-meshing rounds\n\n", m, levels, rounds)
	fmt.Println("round |   mrt makespan  idle% |  seq-lpt makespan  idle% | speedup")
	fmt.Println("------+-----------------------+--------------------------+--------")

	var totalMRT, totalSeq float64
	for r := 0; r < rounds; r++ {
		in := instance.OceanMesh(seed, m, levels, r)

		res, err := malsched.Schedule(in, nil)
		if err != nil {
			log.Fatal(err)
		}
		base, err := malsched.Schedule(in, &malsched.Options{Solver: "seq-lpt"})
		if err != nil {
			log.Fatal(err)
		}

		idle := func(r malsched.Result) float64 {
			return 100 * r.Plan.Idle(in) / (float64(m) * r.Makespan)
		}
		fmt.Printf("%5d | %14.3f %5.1f%% | %17.3f %5.1f%% | %6.2fx\n",
			r, res.Makespan, idle(res), base.Makespan, idle(base), base.Makespan/res.Makespan)
		totalMRT += res.Makespan
		totalSeq += base.Makespan
	}
	fmt.Printf("\ntotal simulated wall-clock: %.3f (mrt) vs %.3f (seq-lpt) — %.2fx faster\n",
		totalMRT, totalSeq, totalSeq/totalMRT)
	fmt.Println("\nlast round, paper scheduler:")
	in := instance.OceanMesh(seed, m, levels, rounds-1)
	res, err := malsched.Schedule(in, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Gantt(in, 76))
}
