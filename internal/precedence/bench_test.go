package precedence

import (
	"testing"

	"malsched/internal/instance"
)

// BenchmarkGraph builds the serve-dag shapes in turn — 48 fresh 16×8
// instances with chain, out-tree and random graphs — through NewGraph,
// which copies the edges and allocates every block, and through
// Scratch.Graph, which borrows the edges and reuses its blocks, as the dag
// solvers do.
func BenchmarkGraph(b *testing.B) {
	const n, m, pool = 16, 8, 48
	outTree, err := OutTreeEdges(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]*instance.Instance, pool)
	graphs := make([][][]int, pool)
	for k := range ins {
		ins[k] = instance.Mixed(int64(1000+k), n, m)
		graphs[k] = [][][]int{ChainEdges(n), outTree, RandomEdges(int64(k), n, 0.3)}[k%3]
	}
	b.Run("NewGraph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, err := NewGraph(ins[i%pool], graphs[i%pool]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Scratch", func(b *testing.B) {
		sc := &Scratch{}
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, err := sc.Graph(ins[i%pool], graphs[i%pool]); err != nil {
				b.Fatal(err)
			}
			sc.Release()
		}
	})
}
