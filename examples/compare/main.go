// Compare runs the paper's algorithm and every baseline on one instance and
// prints the contest — the miniature of experiment E5 and of the paper's
// headline claim (√3 beats the two-phase factor-2 methods).
package main

import (
	"fmt"
	"log"
	"sort"

	"malsched"
	"malsched/internal/instance"
)

func main() {
	in := instance.Mixed(11, 40, 24)
	lb := malsched.LowerBound(in)
	fmt.Printf("instance %s — certified lower bound %.3f\n\n", in.Name, lb)

	type row struct {
		name     string
		makespan float64
	}
	var rows []row

	res, err := malsched.Schedule(in, nil)
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{"mrt-sqrt3 (" + res.Branch + ")", res.Makespan})
	best := res

	for _, name := range []string{"twy-list", "twy-ffdh", "twy-nfdh", "twy-bld", "seq-lpt", "full-parallel"} {
		r, err := malsched.Schedule(in, &malsched.Options{Solver: name})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name, r.Makespan})
		if r.Makespan < best.Makespan {
			best = r
		}
	}

	sort.Slice(rows, func(a, b int) bool { return rows[a].makespan < rows[b].makespan })
	fmt.Println("algorithm                        makespan   ratio vs LB")
	fmt.Println("-------------------------------  --------   -----------")
	for _, r := range rows {
		fmt.Printf("%-31s  %8.3f   %10.3f\n", r.name, r.makespan, r.makespan/lb)
	}

	fmt.Printf("\nwinner's schedule (%s):\n\n", best.Branch)
	fmt.Print(best.Gantt(in, 76))
}
