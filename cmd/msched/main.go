// Command msched schedules a malleable instance read as JSON and prints an
// ASCII Gantt chart plus the certificates.
//
// Usage:
//
//	msched [-solver mrt|portfolio|exact|twy-ffdh|…] [-eps 1e-3] [-compact]
//	       [-cols 80] [-json] [-trace] [file]
//	msched -solvers
//
// -solver selects any registered solver (-solvers lists them).
//
// -trace prints the dual search's probe trajectory (λ, segment,
// accept/reject reason, synthesized) plus the search wall-clock to stderr —
// pure observation, the schedule is bit-identical traced or not. The
// schema is documented in docs/OBSERVABILITY.md.
//
// Reads the instance from file (or stdin). With -json the schedule is
// written as JSON instead of a chart. The instance format is the one
// written by msgen:
//
//	{"name":"...","m":8,"tasks":[{"name":"t0","times":[4,2.1,1.5]}]}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"malsched"
	"malsched/internal/instance"
)

// printTrace writes the λ-search trajectory to stderr, one probe per line
// in search order.
func printTrace(tr *malsched.SolveTrace) {
	if tr == nil {
		fmt.Fprintln(os.Stderr, "trace: no dual search (solver has no λ-search)")
		return
	}
	fmt.Fprintf(os.Stderr, "trace: %d probes, search %.3fms\n", len(tr.Probes), float64(tr.SearchNS)/1e6)
	for i, p := range tr.Probes {
		verdict := "accept"
		if !p.Accepted {
			verdict = "reject " + p.Reject.String()
			if p.Certified {
				verdict += " (certified OPT>λ)"
			}
		}
		seg := ""
		if p.Segment >= 0 {
			seg = fmt.Sprintf(" seg=%d", p.Segment)
		}
		if p.Synthesized {
			seg += " synthesized"
		}
		fmt.Fprintf(os.Stderr, "  probe %2d  λ=%.9g%s  %s\n", i, p.Lambda, seg, verdict)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("msched: ")
	solverName := flag.String("solver", "", "registered solver to run (default mrt; see -solvers)")
	listSolvers := flag.Bool("solvers", false, "list registered solvers and exit")
	eps := flag.Float64("eps", 1e-3, "dual search tolerance (mrt only)")
	compact := flag.Bool("compact", false, "left-shift the final schedule")
	cols := flag.Int("cols", 80, "gantt width in columns")
	asJSON := flag.Bool("json", false, "emit the schedule as JSON")
	trace := flag.Bool("trace", false, "print the λ-search probe trajectory to stderr")
	flag.Parse()

	if *listSolvers {
		for _, name := range malsched.Solvers() {
			fmt.Println(name)
		}
		return
	}

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	in, err := instance.ReadJSON(r)
	if err != nil {
		log.Fatal(err)
	}

	opts := &malsched.Options{Eps: *eps, Compact: *compact, Solver: *solverName, Trace: *trace}
	res, err := malsched.Schedule(in, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *trace {
		printTrace(res.Trace)
	}

	if *asJSON {
		type placement struct {
			Task  string  `json:"task"`
			Start float64 `json:"start"`
			Width int     `json:"width"`
			First int     `json:"first"`
			Procs []int   `json:"procs,omitempty"`
		}
		out := struct {
			Algorithm  string      `json:"algorithm"`
			Makespan   float64     `json:"makespan"`
			LowerBound float64     `json:"lowerBound"`
			Ratio      float64     `json:"ratio"`
			Placements []placement `json:"placements"`
		}{res.Branch, res.Makespan, res.LowerBound, res.Ratio(), nil}
		for _, p := range res.Plan.Placements {
			out.Placements = append(out.Placements, placement{
				Task: in.Tasks[p.Task].Name, Start: p.Start, Width: p.Width, First: p.First, Procs: p.ProcSet,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(res.Gantt(in, *cols))
	fmt.Printf("solver=%s branch=%s makespan=%.6g certified-LB=%.6g certified-ratio=%.4f (√3≈1.7321)\n",
		res.Solver, res.Branch, res.Makespan, res.LowerBound, res.Ratio())
}
