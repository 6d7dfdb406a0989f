package core_test

import (
	"fmt"
	"testing"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/graph"
	"drhwsched/internal/platform"
	"drhwsched/internal/workload"
)

// BenchmarkAnalyze times the design-time phase on its own: one
// core.Analyze per scenario of the multimedia and Pocket GL corpora
// (26 schedules, Spread placement) per op, at 4 and 8 tiles. The
// schedules are built outside the timer.
func BenchmarkAnalyze(b *testing.B) {
	var graphs []*graph.Graph
	for _, task := range workload.MultimediaTasks() {
		graphs = append(graphs, task.Scenarios...)
	}
	graphs = append(graphs, workload.PocketGL().Task.Scenarios...)
	for _, tiles := range []int{4, 8} {
		p := platform.Default(tiles)
		scheds := make([]*assign.Schedule, len(graphs))
		for i, g := range graphs {
			s, err := assign.List(g, p, assign.Options{Placement: assign.Spread})
			if err != nil {
				b.Fatal(err)
			}
			scheds[i] = s
		}
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, s := range scheds {
					if _, err := core.Analyze(s, p, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
